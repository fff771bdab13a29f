package fault

import (
	"sync"
	"testing"
)

func arm(t *testing.T, rules map[Point]Rule) {
	t.Helper()
	Arm(rules)
	t.Cleanup(Disarm)
}

func TestDisarmedHitIsNoop(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if err := Hit(Route); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
	}
	if Calls(Route) != 0 || Fired(Route) != 0 {
		t.Errorf("disarmed counters = %d/%d, want 0/0", Calls(Route), Fired(Route))
	}
}

func TestEveryFiresOnSchedule(t *testing.T) {
	arm(t, map[Point]Rule{Route: {Every: 3}})
	var failedAt []int
	for i := 1; i <= 12; i++ {
		if err := Hit(Route); err != nil {
			failedAt = append(failedAt, i)
		}
	}
	want := []int{3, 6, 9, 12}
	if len(failedAt) != len(want) {
		t.Fatalf("failures at %v, want %v", failedAt, want)
	}
	for i := range want {
		if failedAt[i] != want[i] {
			t.Fatalf("failures at %v, want %v", failedAt, want)
		}
	}
	if Fired(Route) != 4 || Calls(Route) != 12 {
		t.Errorf("Fired/Calls = %d/%d, want 4/12", Fired(Route), Calls(Route))
	}
}

func TestAfterAndLimit(t *testing.T) {
	arm(t, map[Point]Rule{STA: {Every: 1, After: 5, Limit: 2}})
	fails := 0
	for i := 1; i <= 20; i++ {
		if err := Hit(STA); err != nil {
			fails++
			if i <= 5 {
				t.Errorf("fired during the After window (call %d)", i)
			}
		}
	}
	if fails != 2 {
		t.Errorf("fired %d times, want Limit=2", fails)
	}
	if Fired(STA) != 2 {
		t.Errorf("Fired = %d, want 2", Fired(STA))
	}
}

func TestRateIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		Arm(map[Point]Rule{Route: {Rate: 0.3, Seed: seed}})
		defer Disarm()
		var at []int
		for i := 1; i <= 200; i++ {
			if Hit(Route) != nil {
				at = append(at, i)
			}
		}
		return at
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d failures", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at index %d: %d vs %d", i, a[i], b[i])
		}
	}
	// ~30% of 200 calls; allow a wide deterministic band.
	if len(a) < 30 || len(a) > 90 {
		t.Errorf("rate 0.3 fired %d/200 times, want roughly 60", len(a))
	}
}

func TestPanicRulePanicsWithError(t *testing.T) {
	arm(t, map[Point]Rule{PlaceECO: {Every: 1, Panic: true, Msg: "boom"}})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok {
			t.Fatalf("panic value %T, want *fault.Error", r)
		}
		if fe.Point != PlaceECO {
			t.Errorf("panic point = %s, want %s", fe.Point, PlaceECO)
		}
	}()
	_ = Hit(PlaceECO)
	t.Fatal("Panic rule did not panic")
}

func TestConcurrentHitsHonorLimit(t *testing.T) {
	arm(t, map[Point]Rule{Service: {Every: 1, Limit: 10}})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Hit(Service) != nil {
					mu.Lock()
					fails++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fails != 10 {
		t.Errorf("concurrent failures = %d, want Limit=10", fails)
	}
	if got := Calls(Service); got != 800 {
		t.Errorf("Calls = %d, want 800", got)
	}
}
