// Command perfbench is the repository's benchmark: it measures the host
// cost of simulating CompStor, end to end and per layer, on three
// workloads, and checks every simulated output while it does.
//
//	go run . --workload serve-mix --seed 1 --seconds 36 --trace 0
//
// Each run builds fresh testbeds through the library's public API, again
// and again until --seconds have passed, and reports the mean timings and
// the median allocation of those iterations. With
// --trace 0 the last line of standard output is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// separate traced and profiled run. README.md explains the workloads and
// the layer table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"compstor/internal/cluster"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// defaultSeed is the seed whose result digests are recorded in
// expectedDigest.
const defaultSeed = 1

// expectedDigest is the digest of every simulated output and its virtual
// completion time at defaultSeed. A change here is a change of the model.
var expectedDigest = map[string]string{
	"serve-mix":    "e6e15656252949b9259d2b21bdc5e964aa1312a8555ef016f117ed19ba8b7b30",
	"scan-wide":    "472b7c11cf74ea0ee1f2df336712b38ea9d7cf33855f61691c4dd9eea1a7c2ab",
	"ingest-churn": "4bc75cd9815a384565ec251cfa48f141f870a18c53b486e7b4aeab4f99cdfb9e",
}

// minIters is the fewest iterations a run makes, however long they take.
const minIters = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-mix, scan-wide or ingest-churn")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "how long to repeat the workload")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-mix, scan-wide, ingest-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// The engine runs one simulated process at a time. One P keeps its
	// goroutine handoffs on one thread, with no cross-CPU wakeups whose cost
	// swings with the host's load, and keeps results comparable across hosts.
	runtime.GOMAXPROCS(1)

	var (
		res *result
		err error
	)
	d := time.Duration(*seconds * float64(time.Second))
	if *traceFlag == 1 {
		res, err = traceRun(w, *seed, d)
	} else {
		res, err = endToEndRun(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	prov, err := json.Marshal(map[string]any{"provenance": res.provenance(w, *seed)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(prov))
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	iters     []*iteration
	attempted int
	failed    int
	digest    string
	problems  []string // why the run is not correct; empty when it is
	metrics   map[string]metric
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) output() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
}

func (r *result) provenance(w workload, seed int64) map[string]any {
	var walls, cpus []float64
	for _, it := range r.iters {
		walls = append(walls, it.wall.Seconds())
		cpus = append(cpus, it.cpu.Seconds())
	}
	return map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"sizes":           w.sizes,
		"iterations":      len(r.iters),
		"wall_s_iters":    walls,
		"cpu_s_iters":     cpus,
		"digest":          r.digest,
		"expected":        expectedDigest[w.name],
		"failed_frac":     float64(r.failed) / float64(r.attempted),
		"latency_samples": len(r.iters[0].latencies),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
	}
}

// iteration is one testbed built, staged, measured and checked.
type iteration struct {
	setup      time.Duration
	times      setupTimes
	wall       time.Duration
	cpu        time.Duration // process CPU time of the measured phase
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	simElapsed time.Duration
	latencies  []time.Duration // of timed ops, sorted
	ops        []op
	files      []cluster.File // the staged inputs, for the kernel replay
	attempted  int            // operations of the measured phase
	failed     int
	digest     string
	layer      map[string]float64 // deterministic per-layer read-outs
	spans      int
}

// mode selects what an iteration records besides the end-to-end figures.
type mode struct {
	trace   bool       // obs span tracing on
	account bool       // engine accounting and layer read-outs
	profile cpuBuckets // CPU profile of the measured phase, when non-nil
}

func runIteration(w workload, seed int64, m mode) (*iteration, error) {
	o := obs.New()
	if m.trace {
		o.EnableTrace()
	}
	it := &iteration{}
	t0 := time.Now()
	tb, err := w.build(seed, o, &it.times)
	if err != nil {
		return nil, err
	}
	it.setup = time.Since(t0)
	defer tb.sys.Close()

	before := readCounters(o)
	var acct *sim.Accounting
	if m.account {
		acct = tb.sys.Eng.EnableAccounting(sim.AccountingConfig{})
	}
	simStart := tb.sys.Eng.Now()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if m.profile != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}

	w0, c0 := time.Now(), cpuTime()
	it.ops = tb.measure()
	it.wall = time.Since(w0)
	it.cpu = cpuTime() - c0
	it.files = tb.files
	it.attempted = len(it.ops)

	if m.profile != nil {
		pprof.StopCPUProfile()
		if err := bucketProfile(prof.Bytes(), m.profile); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.gcCycles = m1.NumGC - m0.NumGC
	it.simElapsed = tb.sys.Eng.Now().Sub(simStart)
	for _, op := range it.ops {
		if op.timed {
			it.latencies = append(it.latencies, op.lat)
		}
	}
	sort.Slice(it.latencies, func(i, j int) bool { return it.latencies[i] < it.latencies[j] })
	it.failed = countFailed(it.ops)
	it.digest = digest(it.ops)
	if m.account {
		it.layer = layerReadouts(o, before, acct)
	}
	if m.trace {
		if it.spans, err = countSpans(o); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// repeat runs iterations until at least n were made and, judging by the
// longest so far, another would not end within d.
func repeat(w workload, seed int64, d time.Duration, n int, m mode) ([]*iteration, error) {
	var iters []*iteration
	var longest time.Duration
	start := time.Now()
	for len(iters) < n || time.Since(start)+longest <= d {
		t0 := time.Now()
		it, err := runIteration(w, seed, m)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t0))
		if len(iters) > 0 {
			// Only the first iteration keeps its operations, for the replay:
			// keeping them all would grow the heap later iterations run in.
			it.ops, it.files, it.latencies = nil, nil, nil
		}
		iters = append(iters, it)
	}
	return iters, nil
}

// check tallies operations and applies the run-wide checks: every
// iteration simulated the same thing, and at the default seed that thing
// is the recorded one. A run that fails a check counts every operation as
// failed.
func check(w workload, seed int64, iters []*iteration) *result {
	r := &result{iters: iters, digest: iters[0].digest, metrics: map[string]metric{}}
	for _, it := range iters {
		r.attempted += it.attempted
		r.failed += it.failed
		if it.digest != r.digest {
			r.problems = append(r.problems, "iterations of one seed produced different digests")
		}
	}
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d operations failed or returned wrong output", r.failed, r.attempted))
	}
	if want := expectedDigest[w.name]; seed == defaultSeed && r.digest != want {
		r.problems = append(r.problems, fmt.Sprintf("digest %s, recorded %s", r.digest, want))
	}
	if len(r.problems) > 0 {
		r.failed = r.attempted
	}
	return r
}

func endToEndRun(w workload, seed int64, d time.Duration) (*result, error) {
	iters, err := repeat(w, seed, d, minIters, mode{})
	if err != nil {
		return nil, err
	}
	r := check(w, seed, iters)
	// The timings are means, not medians: a shared host switches between a
	// fast and a slow speed every few seconds, and the median of a run jumps
	// to whichever speed held for more than half of it, where the mean moves
	// in proportion.
	r.set("wall_s", "s", mean(iters, func(it *iteration) float64 { return it.wall.Seconds() }))
	r.set("setup_s", "s", mean(iters, func(it *iteration) float64 { return it.setup.Seconds() }))
	r.set("alloc_mb", "MB", median(iters, func(it *iteration) float64 { return float64(it.allocBytes) / 1e6 }))
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", "MB", rss)
	return r, nil
}

// traceRun measures the per-layer metrics: untraced iterations with engine
// accounting for half the time, traced and CPU-profiled iterations for the
// other half, then the kernel replay.
func traceRun(w workload, seed int64, d time.Duration) (*result, error) {
	plain, err := repeat(w, seed, d/2, 2, mode{account: true})
	if err != nil {
		return nil, err
	}
	buckets := cpuBuckets{}
	traced, err := repeat(w, seed, d/2, 1, mode{trace: true, account: true, profile: buckets})
	if err != nil {
		return nil, err
	}
	r := check(w, seed, append(append([]*iteration(nil), plain...), traced...))
	first := plain[0]
	for _, it := range plain[1:] {
		if !maps.Equal(it.layer, first.layer) {
			r.problems = append(r.problems, "iterations of one seed produced different layer counts")
		}
	}
	plainWall := median(plain, func(it *iteration) float64 { return it.wall.Seconds() })

	r.set("textgen.corpus_s", "s", median(plain, func(it *iteration) float64 { return it.times.corpus.Seconds() }))
	r.set("core.new_system_s", "s", median(plain, func(it *iteration) float64 { return it.times.newSystem.Seconds() }))
	r.set("cluster.stage_s", "s", median(plain, func(it *iteration) float64 { return it.times.stage.Seconds() }))
	for _, k := range layerReadoutNames {
		r.set(k.name, k.unit, first.layer[k.name])
	}
	r.set("sim.events_per_s", "1/s", first.layer["sim.events"]/plainWall)

	per := 1 / float64(len(traced))
	total := buckets.total()
	for _, mod := range selfModules {
		r.set(mod+".self_s", "cpu_s", buckets[mod]*per)
	}
	r.set("runtime.gc_s", "cpu_s", buckets["gc"]*per)
	r.set("runtime.sched_s", "cpu_s", buckets["runtime"]*per)
	r.set("profile.cpu_s", "cpu_s", total*per)
	for _, l := range layers {
		r.set("layer."+l+"_frac", "ratio", share(buckets.layer(l), total))
	}
	unattributed := share(buckets.unattributed(), total)
	r.set("profile.unattributed_frac", "ratio", unattributed)
	if unattributed > maxUnattributed {
		r.problems = append(r.problems, fmt.Sprintf("%.0f%% of CPU samples fall in no bucket: %v", 100*unattributed, unknownModules(buckets)))
	}

	r.set("obs.spans", "count", float64(traced[0].spans))
	r.set("obs.overhead_s", "s", median(traced, func(it *iteration) float64 { return it.wall.Seconds() })-plainWall)
	r.set("runtime.gc_cycles", "count", median(plain, func(it *iteration) float64 { return float64(it.gcCycles) }))
	r.set("runtime.mallocs", "count", median(plain, func(it *iteration) float64 { return float64(it.mallocs) }))
	r.set("sim.elapsed_s", "sim_s", first.simElapsed.Seconds())
	r.set("sim.p50_ms", "sim_ms", ms(percentile(first.latencies, 0.50)))
	r.set("sim.p95_ms", "sim_ms", ms(percentile(first.latencies, 0.95)))
	r.set("sim.latency_samples", "count", float64(len(first.latencies)))

	reps, err := replay(first.ops, first.files)
	if err != nil {
		return nil, err
	}
	for _, rp := range reps {
		r.set(rp.kernel+".replay_mb_per_s", "MB/s", rp.mbPerS)
		r.set(rp.kernel+".replay_allocs_per_kb", "allocs/KB", rp.allocsPerKB)
		if rp.mismatches > 0 {
			r.problems = append(r.problems, fmt.Sprintf("%s replay differs from the simulated output on %d inputs", rp.kernel, rp.mismatches))
		}
		if rp.oracleFailed > 0 {
			r.problems = append(r.problems, fmt.Sprintf("%s replay output failed its oracle on %d inputs", rp.kernel, rp.oracleFailed))
		}
	}
	if len(r.problems) > 0 {
		r.failed = r.attempted
	}
	r.set("failed_frac", "ratio", float64(r.failed)/float64(r.attempted))
	return r, nil
}

func unknownModules(b cpuBuckets) []string {
	var out []string
	for m := range b {
		if _, ok := moduleLayer[m]; !ok {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// countSpans counts the complete spans in the trace obs recorded.
func countSpans(o *obs.Obs) (int, error) {
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		return 0, err
	}
	var t struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &t); err != nil {
		return 0, err
	}
	n := 0
	for _, e := range t.TraceEvents {
		if e.Ph == "X" {
			n++
		}
	}
	return n, nil
}

func median(iters []*iteration, f func(*iteration) float64) float64 {
	v := make([]float64, len(iters))
	for i, it := range iters {
		v[i] = f(it)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func mean(iters []*iteration, f func(*iteration) float64) float64 {
	sum := 0.0
	for _, it := range iters {
		sum += f(it)
	}
	return sum / float64(len(iters))
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func share(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total
}

// peakRSS is the process's maximum resident set so far, in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Maxrss is in KiB on Linux
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
