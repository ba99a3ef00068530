// Command perfbench is the repository's benchmark. One invocation runs one
// workload in a closed loop for a fixed host-time budget and prints, as its
// last line, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer split (--trace 1):
//
//	perfbench --workload prim-mix|push-pull|tenants --seed N --seconds S --trace 0|1
//
// Every iteration's outputs are checked; a failed check, an error from the
// program or a virtual time that drifts between iterations counts as a
// failure, and any failure makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	// One P. On a shared virtual machine the hypervisor steals CPU time from
	// the vCPUs, and a process that keeps every vCPU busy waits at each
	// fan-out for the one that was stolen. On a 2-vCPU VM while the host
	// stole about a third of its CPU time, push-pull's median iteration
	// doubled at GOMAXPROCS=2 and rose 10 % at GOMAXPROCS=1.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// options are settings only the benchmark's own tests change.
type options struct {
	// corrupt plants a readback corruption in every set's devices.
	corrupt bool
}

// setups is how often an untraced run builds its workload; setup_s is the
// median. The last build is the one measured.
const setups = 5

// minIters keeps a run with a tiny budget meaningful.
const minIters = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runState accumulates what a run reports besides its metrics.
type runState struct {
	stderr    io.Writer
	attempted int
	failed    int
	info      map[string]any
}

// fail counts one failure and says why on standard error.
func (st *runState) fail(format string, args ...any) {
	st.failed++
	fmt.Fprintf(st.stderr, "perfbench: FAIL "+format+"\n", args...)
}

func run(args []string, stdout, stderr io.Writer, opt options) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: prim-mix, push-pull or tenants")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	st := &runState{stderr: stderr, info: map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"seed":        *seed,
		"run_seconds": *seconds,
		"trace":       *traceFlag,
		"host":        hostRecord(),
	}}
	var metrics map[string]metric
	if *traceFlag == 1 {
		metrics, err = traced(w, *seed, budget, opt, st)
	} else {
		metrics, err = untraced(w, *seed, budget, opt, st)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if st.attempted == 0 {
		st.attempted = 1
		st.fail("no iteration ran")
	}
	st.info["attempted"] = st.attempted
	st.info["failed"] = st.failed
	st.info["fail_ratio"] = float64(st.failed) / float64(st.attempted)
	rec, _ := json.Marshal(st.info)
	fmt.Fprintf(stdout, "record %s\n", rec)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "metric %-34s %16.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "metric %-34s %16.6f %s\n", "fail_ratio", st.info["fail_ratio"], "ratio")
	out, err := json.Marshal(result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if st.failed > 0 {
		return 1
	}
	return 0
}

// hostRecord describes the machine and the build that produced a result.
func hostRecord() map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"modified":   modified,
	}
}

// phase is what one measured loop observed.
type phase struct {
	samples  []time.Duration // host time of each successful iteration
	virt     time.Duration   // virtual time of every iteration
	counters map[string]int64
	tracker  map[string]time.Duration
	mem      runtime.MemStats // deltas over the loop
	steal    float64          // share of all CPUs' time the hypervisor stole during the loop
}

func (p *phase) iters() int { return len(p.samples) }

// warmUp runs one untimed iteration, so caches, page commits and the worker
// pool start warm. A failure counts like a failed iteration.
func warmUp(inst *instance, st *runState) {
	if err := inst.prepare(-1); err != nil {
		st.attempted++
		st.fail("warm-up: %v", err)
		return
	}
	_, err := inst.run(-1)
	if err == nil {
		err = inst.check(-1)
	}
	if err != nil {
		st.attempted++
		st.fail("warm-up: %v", err)
	}
}

// measure runs iterations until budget has passed (and at least minIters
// ran). wantVirt, when non-zero, is the virtual time every iteration must
// take; otherwise the first successful iteration sets it.
func measure(inst *instance, budget time.Duration, tr *tracer, wantVirt time.Duration, st *runState) *phase {
	p := &phase{virt: wantVirt}
	beforeC, beforeT := inst.counters(), inst.tracker()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total0, steal0 := cpuTicks()
	deadline := time.Now().Add(budget)
	for it := 0; it < minIters || time.Now().Before(deadline); it++ {
		st.attempted++
		if err := inst.prepare(it); err != nil {
			st.fail("iteration %d: %v", it, err)
			continue
		}
		var root int32
		var start time.Time
		if tr != nil {
			root = tr.beginIter(it)
		} else {
			start = time.Now()
		}
		virt, err := inst.run(it)
		var host time.Duration
		if tr != nil {
			host = tr.endIter(root)
		} else {
			host = time.Since(start)
		}
		if err == nil {
			err = inst.check(it)
		}
		if err == nil && p.virt != 0 && virt != p.virt {
			err = fmt.Errorf("virtual time %v, expected %v", virt, p.virt)
		}
		if err != nil {
			st.fail("iteration %d: %v", it, err)
			continue
		}
		p.virt = virt
		p.samples = append(p.samples, host)
	}
	total1, steal1 := cpuTicks()
	p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	runtime.ReadMemStats(&after)
	p.mem = after
	p.mem.TotalAlloc -= before.TotalAlloc
	p.mem.Mallocs -= before.Mallocs
	p.mem.NumGC -= before.NumGC
	p.mem.PauseTotalNs -= before.PauseTotalNs
	p.counters = inst.counters()
	for k, v := range beforeC {
		p.counters[k] -= v
	}
	p.tracker = inst.tracker()
	for k, v := range beforeT {
		p.tracker[k] -= v
	}
	return p
}

func untraced(w workload, seed int64, budget time.Duration, opt options, st *runState) (map[string]metric, error) {
	var inst *instance
	setupTimes := make([]time.Duration, 0, setups)
	for i := 0; i < setups; i++ {
		inst = nil
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(seed, nil, opt.corrupt); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warmUp(inst, st)
		setupTimes = append(setupTimes, time.Since(start))
	}
	p := measure(inst, budget, nil, 0, st)
	// The resident set once garbage is collected and returned: what the
	// workload holds. The peak (VmHWM) also holds whatever garbage the
	// collector had not yet reclaimed, and with one P that swung by a fifth
	// between runs of push-pull.
	debug.FreeOSMemory()
	rss := residentMB()
	nativeVirt, _, err := inst.native(nil)
	if err != nil {
		st.fail("native twin: %v", err)
	}
	n := p.iters()
	st.info["samples"] = n
	if n == 0 {
		// Nothing to time: the failures are the result.
		n, p.samples = 1, []time.Duration{0}
	}
	sorted := sortedMs(p.samples)
	total := 0.0
	for _, s := range sorted {
		total += s
	}
	pct, tail, beyond := tailPercentile(sorted)
	st.info["warmup_iterations"] = 1
	st.info["setups"] = setups
	st.info["tail_percentile"] = pct
	st.info["tail_beyond"] = beyond
	st.info["virt_native_ms"] = ms(nativeVirt)
	st.info["steal_share"] = p.steal
	overhead := ratio(float64(p.virt), float64(nativeVirt))
	return map[string]metric{
		"iters_per_s":       {ratio(float64(n), total/1e3), "1/s"},
		"iter_ms_p50":       {quantile(sorted, 50), "ms"},
		"iter_ms_tail":      {tail, "ms"},
		"virt_ms":           {ms(p.virt), "virt-ms"},
		"virt_overhead_x":   {overhead, "ratio"},
		"setup_s":           {median(setupTimes).Seconds(), "s"},
		"rss_mb":            {rss, "MB"},
		"alloc_mb_per_iter": {float64(p.mem.TotalAlloc) / 1e6 / float64(n), "MB"},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rank is the nearest-rank position (1-based) of percentile p in n samples.
func rank(p float64, n int) int {
	// The epsilon keeps an exact rank exact despite float rounding.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile is the nearest-rank percentile of sorted samples, except that
// the median of an even count averages the two middle samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p == 50 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return sorted[rank(p, n)-1]
}

// tailPct is the percentile iter_ms_tail reports. On a shared 2-vCPU virtual
// machine the higher percentiles follow the CPU time the hypervisor steals:
// over six 45 s push-pull runs at GOMAXPROCS=2, p90, p95 and p99 spread 15 %,
// 15 % and 22 % of their median (interquartile range), p75 9 % and the
// median 5 %.
const tailPct = 75

// tailPercentile reports tailPct with the number of samples beyond it, or
// the median when fewer than ten samples lie beyond tailPct.
func tailPercentile(sorted []float64) (p float64, value float64, beyond int) {
	n := len(sorted)
	if b := n - rank(tailPct, n); b >= 10 {
		return tailPct, quantile(sorted, tailPct), b
	}
	return 50, quantile(sorted, 50), n - rank(50, n)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: the time all CPUs
// spent in any state, and the part of it a hypervisor ran something else
// while this machine's CPUs wanted to run (steal). Runs whose wall times
// drift together while their steal share rises measured the host.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// residentMB reads the process's resident set (VmRSS) in MB.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
