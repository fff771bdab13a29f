package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gdsiiguard"
	"gdsiiguard/internal/core"
	"gdsiiguard/internal/route"
	"gdsiiguard/internal/service"
)

// serviceSpec sizes the service workload.
type serviceSpec struct {
	// Designs is the working set; it fits the manager's design cache.
	Designs []string
	// Clients is the number of closed-loop clients.
	Clients int
	// HardenPerAttack sets the job mix: each block a client draws from
	// holds, per design, this many harden jobs and one attack job.
	HardenPerAttack int
	// SetupReps is how many managers a run starts and fills; setup_s is the
	// median.
	SetupReps int
	// BlockSeconds is the nominal duration of one block: each client works
	// through --seconds / BlockSeconds blocks (at least one).
	BlockSeconds int
}

// serviceDefault is an assumed traffic shape: no guardd usage record exists
// to derive the mix, working set or client count from. With it, every run's
// median job is a PRESENT harden (see README.md).
var serviceDefault = serviceSpec{
	Designs: []string{"PRESENT", "openMSP430_1"}, Clients: 2, HardenPerAttack: 3, SetupReps: 3,
	BlockSeconds: 10,
}

// jobKey identifies what a job computes: every job with the same key must
// return the same answer.
type jobKey struct {
	design string
	kind   service.Kind
}

// jobOutcome is what one client observed for one job.
type jobOutcome struct {
	key     jobKey
	snap    service.Snapshot
	begin   time.Time // before Submit
	end     time.Time // result in hand (and artifact streamed, for harden)
	export  [2]time.Time
	hash    string
	err     error
	traced  bool
	hardMet *gdsiiguard.Metrics
	attack  *gdsiiguard.AttackResult
}

// reference is the sequential answer a job of the same key must match.
type reference struct {
	metrics gdsiiguard.Metrics
	hash    string
	attack  gdsiiguard.AttackResult
}

// artifactHash streams a hardened layout's GDSII, as guardd's artifact
// endpoint does, into a SHA-256.
func artifactHash(h *gdsiiguard.Hardened) (string, error) {
	sum := sha256.New()
	if err := h.WriteGDSII(sum); err != nil {
		return "", err
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// serviceReferences computes each design's harden and attack answers with
// sequential calls at one worker per stage, and the design fingerprints.
// It restores the default worker settings and records the configuration
// they resolve to on the largest design of the working set.
func serviceReferences(spec serviceSpec, r *report, t *Tracer) (map[string]reference, error) {
	pinWorkers(1)
	refs := map[string]reference{}
	var largest *core.Baseline
	for _, name := range spec.Designs {
		unit := t.Unit()
		root := t.Open(unit, 0, "setup")
		_, base, err := buildBaseline(t, unit, root, name)
		t.Close(root)
		if err != nil {
			return nil, err
		}
		if largest == nil || len(base.Layout.Netlist.Nets) > len(largest.Layout.Netlist.Nets) {
			largest = base
		}
		r.Fingerprints = append(r.Fingerprints, designFingerprint(name, base))
		d, err := gdsiiguard.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		h, err := d.Harden(nil)
		if err != nil {
			return nil, fmt.Errorf("reference harden %s: %w", name, err)
		}
		hash, err := artifactHash(h)
		if err != nil {
			return nil, err
		}
		a, err := d.SimulateAttack()
		if err != nil {
			return nil, err
		}
		refs[name] = reference{metrics: h.Metrics, hash: hash, attack: *a}
	}
	pinWorkers(0)
	r.Config = resolvedConfig(largest)
	return refs, nil
}

// startManager starts a manager at guardd's defaults and fills its design
// cache with the working set (one attack job per design).
func startManager(spec serviceSpec) (*service.Manager, error) {
	m := service.New(service.Config{})
	for _, name := range spec.Designs {
		job, err := m.Submit(service.Spec{Kind: service.KindAttack, Benchmark: name})
		if err != nil {
			return m, err
		}
		if st := job.Wait(); st != service.StateDone {
			return m, fmt.Errorf("cache fill %s: job %s", name, st)
		}
	}
	return m, nil
}

// runJob submits one job, waits for it and, for a harden job, streams its
// artifact.
func runJob(m *service.Manager, key jobKey) jobOutcome {
	o := jobOutcome{key: key, begin: time.Now()}
	job, err := m.Submit(service.Spec{Kind: key.kind, Benchmark: key.design})
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	job.Wait()
	o.snap = job.Snapshot()
	if o.snap.State == service.StateDone {
		switch key.kind {
		case service.KindHarden:
			o.hardMet = o.snap.Result.Hardened
			o.export[0] = time.Now()
			o.hash, o.err = artifactHash(job.Hardened())
			o.export[1] = time.Now()
		case service.KindAttack:
			o.attack = o.snap.Result.Attack
		}
	}
	o.end = time.Now()
	return o
}

// block returns one client's next seeded block of jobs.
func (spec serviceSpec) block(rng *rand.Rand) []jobKey {
	var b []jobKey
	for _, d := range spec.Designs {
		for i := 0; i < spec.HardenPerAttack; i++ {
			b = append(b, jobKey{d, service.KindHarden})
		}
		b = append(b, jobKey{d, service.KindAttack})
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// load runs spec.Clients closed-loop clients, each through the given number
// of whole blocks: a client submits its next job only once the previous one
// (and its artifact) is complete. Whole blocks give every run the same mix
// of jobs; the three kinds of job differ in cost by orders of magnitude, so
// a partial block would move the median from one kind to another.
func load(m *service.Manager, spec serviceSpec, seed int64, blocks int, traced bool) []jobOutcome {
	var mu sync.Mutex
	var out []jobOutcome
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < blocks; n++ {
				for _, key := range spec.block(rng) {
					o := runJob(m, key)
					o.traced = traced
					mu.Lock()
					out = append(out, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runService measures an in-process service.Manager at guardd's defaults:
// NumCPU job workers, an 8-design cache, and route/STA/band workers left
// at their shipped default. Traced runs do half the blocks untraced and
// half with spans recorded from each job's lifecycle timestamps.
func runService(spec serviceSpec, r *report, t *Tracer) error {
	refs, err := serviceReferences(spec, r, t)
	if err != nil {
		return err
	}
	var m *service.Manager
	for i := 0; i < spec.SetupReps; i++ {
		if m != nil {
			if err := m.Shutdown(context.Background()); err != nil {
				return err
			}
		}
		t0 := time.Now()
		m, err = startManager(spec)
		r.Setups = append(r.Setups, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
	}
	defer m.Shutdown(context.Background())
	r.Config.ManagerWorkers = m.Stats().Workers
	r.Config.Clients = spec.Clients

	// Warm-up: one job of each key, sequentially, checked like the rest.
	var outs []jobOutcome
	for _, d := range spec.Designs {
		for _, k := range []service.Kind{service.KindHarden, service.KindAttack} {
			outs = append(outs, runJob(m, jobKey{d, k}))
		}
	}
	checkJobs(outs, refs, r)

	blocks := r.units(spec.BlockSeconds)
	b := startBracket()
	var timed []jobOutcome
	if t == nil {
		timed = load(m, spec, r.Seed, blocks, false)
	} else {
		half := max(1, blocks/2)
		timed = load(m, spec, r.Seed, half, false)
		timed = append(timed, load(m, spec, r.Seed+1, half, true)...)
	}
	var mt meter
	mt.stop(b)
	r.Window = mt.window()
	checkJobs(timed, refs, r)

	var wait, run, attack, export []float64
	for _, o := range timed {
		r.Attempted++
		if o.err != nil || o.snap.State != service.StateDone {
			r.Failed++
			continue
		}
		r.Evals++
		u := o.end.Sub(o.begin).Seconds()
		if o.traced {
			r.UnitsTraced = append(r.UnitsTraced, u)
			traceJob(t, o)
		} else {
			r.Units = append(r.Units, u)
		}
		wait = append(wait, o.snap.Started.Sub(o.snap.Submitted).Seconds())
		exec := o.snap.Finished.Sub(o.snap.Started).Seconds()
		if o.key.kind == service.KindHarden {
			run = append(run, exec)
			export = append(export, o.export[1].Sub(o.export[0]).Seconds())
		} else {
			attack = append(attack, exec)
		}
	}
	r.Layer["service.queue_wait_s"] = median(wait)
	r.Layer["service.run_s"] = median(run)
	r.Layer["attack.attempt_s"] = median(attack)
	r.Layer["gdsii.export_s"] = median(export)
	if t != nil {
		waveSpeedup(spec, r)
	}
	return nil
}

// traceJob records a job's spans: the client's unit from submit to result
// (and artifact), split into queue wait, execution and export by the job's
// lifecycle timestamps.
func traceJob(t *Tracer, o jobOutcome) {
	unit := t.Unit()
	root := t.Add(unit, 0, "service.job", o.begin, o.end)
	t.Add(unit, root, "service.queue_wait", o.snap.Submitted, o.snap.Started)
	name := "service.run"
	if o.key.kind == service.KindAttack {
		name = "attack.attempt"
	}
	t.Add(unit, root, name, o.snap.Started, o.snap.Finished)
	if o.key.kind == service.KindHarden {
		t.Add(unit, root, "gdsii.export", o.export[0], o.export[1])
	}
}

// checkJobs requires every finished job to match its key's sequential
// reference: identical harden metrics and a byte-identical GDSII artifact,
// identical attack outcomes.
func checkJobs(outs []jobOutcome, refs map[string]reference, r *report) {
	for _, o := range outs {
		if o.err != nil {
			r.fail("service %s/%s: %v", o.key.design, o.key.kind, o.err)
			continue
		}
		if o.snap.State != service.StateDone {
			r.fail("service %s/%s: job %s %s: %s", o.key.design, o.key.kind, o.snap.ID, o.snap.State, o.snap.Error)
			continue
		}
		ref := refs[o.key.design]
		switch o.key.kind {
		case service.KindHarden:
			if o.hardMet == nil || !sameMetrics(*o.hardMet, ref.metrics) {
				r.fail("service %s harden: metrics %+v != sequential %+v", o.key.design, o.hardMet, ref.metrics)
			}
			if o.hash != ref.hash {
				r.fail("service %s harden: artifact sha256 %s != sequential %s", o.key.design, o.hash, ref.hash)
			}
		case service.KindAttack:
			if o.attack == nil || *o.attack != ref.attack {
				r.fail("service %s attack: %+v != sequential %+v", o.key.design, o.attack, ref.attack)
			}
		}
	}
}

// waveSpeedup times route.Route on each working-set baseline at one worker
// (best of three) and at the shipped default, requires equal wirelength,
// and reports the summed one-worker time over the summed default time.
func waveSpeedup(spec serviceSpec, r *report) {
	var seq, par float64
	for _, name := range spec.Designs {
		_, base, err := buildBaseline(nil, 0, 0, name)
		if err != nil {
			r.fail("wave speedup %s: %v", name, err)
			return
		}
		l, opts := base.Layout, base.Config.RouteOpts
		route.SetWorkers(1)
		best := 0.0
		var wl1 int64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := route.Route(l, opts)
			s := time.Since(t0).Seconds()
			if err != nil {
				r.fail("wave speedup %s: %v", name, err)
				return
			}
			if i == 0 || s < best {
				best = s
			}
			wl1 = res.TotalWL
		}
		route.SetWorkers(0)
		t0 := time.Now()
		res, err := route.Route(l, opts)
		p := time.Since(t0).Seconds()
		if err != nil {
			r.fail("wave speedup %s: %v", name, err)
			return
		}
		if res.TotalWL != wl1 {
			r.fail("wave speedup %s: default-worker WL %d != one-worker WL %d", name, res.TotalWL, wl1)
		}
		seq += best
		par += p
		progress("route %s: 1 worker %.4fs, default %.4fs", name, best, p)
	}
	if par > 0 {
		r.Layer["route.wave_speedup"] = seq / par
	}
}
