package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// heldOutSeed is a seed no expected value was recorded for.
const heldOutSeed = 2

var (
	itersMu sync.Mutex
	iters   = map[string][]*iteration{}
)

// twoIterations runs a workload twice at seed with layer read-outs on, once
// per test binary.
func twoIterations(t *testing.T, name string, seed int64) []*iteration {
	t.Helper()
	itersMu.Lock()
	defer itersMu.Unlock()
	key := fmt.Sprintf("%s/%d", name, seed)
	if its, ok := iters[key]; ok {
		return its
	}
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	var its []*iteration
	for i := 0; i < 2; i++ {
		it, err := runIteration(w, seed, mode{account: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		its = append(its, it)
	}
	iters[key] = its
	return its
}

func TestSameSeedRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			its := twoIterations(t, w.name, heldOutSeed)
			a, b := its[0], its[1]
			if a.failed != 0 || b.failed != 0 {
				t.Errorf("failed operations: %d and %d", a.failed, b.failed)
			}
			if a.digest != b.digest {
				t.Errorf("digests differ: %s vs %s", a.digest, b.digest)
			}
			if a.simElapsed != b.simElapsed || !reflect.DeepEqual(a.latencies, b.latencies) {
				t.Errorf("virtual times differ: %v vs %v", a.simElapsed, b.simElapsed)
			}
			if !reflect.DeepEqual(a.layer, b.layer) {
				t.Errorf("layer counts differ:\n%v\n%v", a.layer, b.layer)
			}
		})
	}
}

func TestDefaultSeedDigest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			it := twoIterations(t, w.name, defaultSeed)[0]
			if it.failed != 0 {
				t.Errorf("%d operations failed", it.failed)
			}
			if it.digest != expectedDigest[w.name] {
				t.Errorf("digest %s, recorded %s", it.digest, expectedDigest[w.name])
			}
		})
	}
}

// TestFlippedByteFails flips one byte in the output of one operation of
// every kind and expects each to be reported failed.
func TestFlippedByteFails(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range []string{"serve-mix", "scan-wide"} {
		ops := twoIterations(t, name, heldOutSeed)[0].ops
		for i, o := range ops {
			if seen[o.kernel] || len(o.out) == 0 || len(o.alt) > 0 {
				continue
			}
			seen[o.kernel] = true
			flipped := append([]op(nil), ops...)
			out := append([]byte(nil), o.out...)
			out[len(out)/2] ^= 0x01
			flipped[i].out = out
			if got := countFailed(flipped); got != 1 {
				t.Errorf("%s: flipped byte gave %d failures, want 1", o.kernel, got)
			}
			if digest(flipped) == digest(ops) {
				t.Errorf("%s: flipped byte left the digest unchanged", o.kernel)
			}
		}
	}
	for _, k := range []string{"grep", "gawk", "gzip", "bzip2", "wc", "cksum"} {
		if !seen[k] {
			t.Errorf("no %s output was checked", k)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs the command both ways and
// compares the printed metrics with BENCHMARK.json at the repository root.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--workload", "scan-wide", "--seed", "2", "--seconds", "0.01", "--trace", trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct bool
			Metrics map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("trace %s: run not correct: %s", trace, stderr.String())
		}
		var got, names []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		for _, m := range want {
			names = append(names, m.Name)
		}
		sort.Strings(got)
		sort.Strings(names)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("trace %s: printed metrics\n%v\nBENCHMARK.json lists\n%v", trace, got, names)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "compstor/internal/apps/awkx.(*interp).eval", "compstor/internal/isps.run"}, "awkx"},
		{[]string{"compress/flate.(*compressor).deflate", "main.readBack"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, "runtime"},
		{[]string{"__tsan_read8", "__tsan::ThreadState"}, "runtime"},
		{[]string{"compstor/internal/newmod.f", "compstor/internal/sim.(*Engine).Run"}, "newmod"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if _, ok := moduleLayer["newmod"]; ok {
		t.Fatal("newmod must be unattributed")
	}
}
