package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"compstor/internal/apps"
	"compstor/internal/apps/appset"
	"compstor/internal/cluster"
)

// replayKernels are the programs replayed outside the engine, with the
// stdin-mode arguments that make them compute what the workload asked for.
var replayKernels = []struct {
	kernel string
	args   []string
}{
	{"gawk", []string{gawkProg}},
	{"gzip", nil},
	{"bzip2", nil},
	{"grep", []string{"-c", grepWord}},
	{"wc", nil},
	{"cksum", nil},
}

// replayBudget caps the input bytes replayed per kernel.
const replayBudget = 1 << 20

// replayResult is one kernel's isolated throughput.
type replayResult struct {
	kernel       string
	bytes        int64
	mbPerS       float64
	allocsPerKB  float64
	mismatches   int // replay outputs that differ from the simulated ones
	oracleFailed int // replay outputs the oracle rejects
}

// replayInput is one input a kernel replays, with the output the simulated
// run produced for it (nil when the workload never ran the kernel on it).
type replayInput struct {
	name string
	data []byte
	sim  []byte
}

// replayInputs picks each kernel's inputs: the distinct files the workload
// fed it, or, for a kernel the workload never ran, the workload's own
// files, up to replayBudget bytes.
func replayInputs(kernel string, ops []op, files []cluster.File) []replayInput {
	var in []replayInput
	seen := map[string]bool{}
	total := 0
	add := func(name string, data, sim []byte) {
		if seen[name] || total >= replayBudget {
			return
		}
		seen[name] = true
		total += len(data)
		in = append(in, replayInput{name, data, sim})
	}
	for _, o := range ops {
		if o.kernel != kernel || o.input == nil || seen[o.name] {
			continue
		}
		if out, ok := o.checked(); ok {
			add(o.name, o.input, out)
		}
	}
	for _, f := range files {
		add(f.Name, f.Data, nil)
	}
	return in
}

// replay runs each kernel's Program.Run with no engine, filesystem or cost
// model attached (nil Proc and Charge), on the given inputs.
func replay(ops []op, files []cluster.File) ([]replayResult, error) {
	reg := appset.Base()
	var out []replayResult
	for _, k := range replayKernels {
		prog, ok := reg.Lookup(k.kernel)
		if !ok {
			return nil, fmt.Errorf("replay: %s not registered", k.kernel)
		}
		inputs := replayInputs(k.kernel, ops, files)
		res := replayResult{kernel: k.kernel}
		outs := make([][]byte, len(inputs))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i, in := range inputs {
			var stdout bytes.Buffer
			ctx := &apps.Context{Stdin: bytes.NewReader(in.data), Stdout: &stdout, Stderr: io.Discard, Class: prog.Class()}
			if err := prog.Run(ctx, k.args); err != nil {
				return nil, fmt.Errorf("replay %s on %s: %w", k.kernel, in.name, err)
			}
			outs[i] = stdout.Bytes()
			res.bytes += int64(len(in.data))
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		res.mbPerS = float64(res.bytes) / 1e6 / elapsed.Seconds()
		res.allocsPerKB = float64(m1.Mallocs-m0.Mallocs) / (float64(res.bytes) / 1024)
		for i, in := range inputs {
			if !oracle(k.kernel, "", in.data, outs[i]) {
				res.oracleFailed++
			}
			if in.sim != nil && !bytes.Equal(named(k.kernel, outs[i], in.name), in.sim) {
				res.mismatches++
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// named turns a stdin-mode output into the line the kernel prints with a
// file argument: wc and cksum append the file name.
func named(kernel string, out []byte, name string) []byte {
	if kernel != "wc" && kernel != "cksum" {
		return out
	}
	return []byte(strings.TrimSuffix(string(out), "\n") + " " + name + "\n")
}
