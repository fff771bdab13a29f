package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gdsiiguard/internal/layout"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// meter accumulates wall time, CPU time and allocation volume over the
// timed brackets of a run, so untimed work between units (fresh baselines,
// forced GCs, output checks) stays out of the per-evaluation figures.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64
}

// bracket is one open timing interval of a meter.
type bracket struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func startBracket() bracket {
	return bracket{alloc0: totalAlloc(), cpu0: cpuTime(), t0: time.Now()}
}

// stop closes b, adds it to the meter and returns its wall time.
func (m *meter) stop(b bracket) time.Duration {
	wall := time.Since(b.t0)
	m.cpu += cpuTime() - b.cpu0
	m.alloc += totalAlloc() - b.alloc0
	m.wall += wall
	return wall
}

func (m meter) window() window {
	return window{WallS: m.wall.Seconds(), CPUS: m.cpu.Seconds(), AllocB: m.alloc}
}

// fingerprint identifies one generated design input: a hash of its net
// names in net-ID order plus its baseline wirelength and TNS. Two runs
// that print different fingerprints for the same design did not measure
// the same input.
type fingerprint struct {
	Design  string  `json:"design"`
	NetHash string  `json:"net_hash"`
	Nets    int     `json:"nets"`
	WL      int64   `json:"baseline_wl_dbu"`
	TNS     float64 `json:"baseline_tns_ps"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s nets=%d net_hash=%s wl=%d tns=%.3f", f.Design, f.Nets, f.NetHash, f.WL, f.TNS)
}

// netHash hashes the layout's net names in net-ID order.
func netHash(l *layout.Layout) string {
	h := sha256.New()
	for _, n := range l.Netlist.Nets {
		h.Write([]byte(n.Name))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// progress prints a human-readable line to standard error; standard output
// carries only the result object.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
