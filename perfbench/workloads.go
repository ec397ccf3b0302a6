package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"time"

	"compstor/internal/apps/appset"
	"compstor/internal/chaos"
	"compstor/internal/cluster"
	"compstor/internal/core"
	"compstor/internal/flash"
	"compstor/internal/obs"
	"compstor/internal/serve"
	"compstor/internal/sim"
	"compstor/internal/textgen"
)

// op is one simulated operation of a measured phase, with what the output
// checks, the result digest and the kernel replay need.
type op struct {
	kernel string   // program that produced out, or "write"/"flush"
	name   string   // file the operation read or wrote
	input  []byte   // bytes the kernel consumed; nil when want is set
	want   []byte   // expected output, when it was fixed at submission
	out    []byte   // stdout, or the read-back output file for gzip/bzip2
	alt    [][]byte // further read-back copies; the check accepts any
	done   sim.Time
	lat    time.Duration // virtual latency, submission (or arrival) to completion
	timed  bool          // counts toward sim_p50_ms/sim_p95_ms
	err    error
}

// testbed is one built and staged system, ready for its measured phase.
type testbed struct {
	sys   *core.System
	files []cluster.File
	// measure runs every simulated operation of the phase and reads back
	// its results; ops come back in an order fixed by the workload, not by
	// completion.
	measure func() []op
}

// setupTimes splits setup_s by the public call that spent it.
type setupTimes struct {
	corpus, newSystem, stage time.Duration
}

type workload struct {
	name  string
	sizes map[string]int // reported with every result
	build func(seed int64, o *obs.Obs, st *setupTimes) (*testbed, error)
}

var workloads = []workload{
	{"serve-mix", map[string]int{
		"devices": serveDevices, "books": serveBooks, "book_bytes": serveBookBytes,
		"rate_per_s": serveRate, "horizon_ms": int(serveHorizon / time.Millisecond),
	}, buildServeMix},
	{"scan-wide", map[string]int{
		"devices": scanDevices, "books": scanBooks, "book_bytes": scanBookBytes, "passes": len(scanPasses),
	}, buildScanWide},
	{"ingest-churn", map[string]int{
		"devices": churnDevices, "books": churnBooks, "book_bytes": churnBookBytes, "rounds": churnRounds,
	}, buildIngestChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// grepWord is the pattern every grep request counts.
const grepWord = "the"

// gawkProg prints the number of distinct words in its input.
const gawkProg = `{ for (i = 1; i <= NF; i++) c[$i]++ } END { n = 0; for (w in c) n++; print n }`

func timed(d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d += time.Since(t0)
}

// corpus synthesises books of exactly size bytes each. Fixed sizes keep
// the work of a run the same from seed to seed, so a seed changes what the
// books say, not how much there is to simulate.
func corpus(seed int64, books, size int) []cluster.File {
	// Corpus sizes books at 0.5–2× the mean; at twice the wanted size every
	// book is long enough to cut.
	var files []cluster.File
	for _, b := range textgen.Corpus(textgen.Config{Seed: seed, Books: books, MeanBookBytes: 2 * size}) {
		files = append(files, cluster.File{Name: b.Name, Data: bytes.Clone(b.Data[:size])})
	}
	return files
}

// simulate runs body as a simulated process and drives the engine until
// every process is idle.
func simulate(sys *core.System, body func(p *sim.Proc) error) error {
	var err error
	sys.Go("bench", func(p *sim.Proc) { err = body(p) })
	sys.Run()
	return err
}

// stageCorpus synthesises books of size bytes, builds the system cfg
// describes with a pool over its CompStors, and stages the books with
// stage. It times each step into st.
func stageCorpus(seed int64, st *setupTimes, cfg core.SystemConfig, books, size int,
	stage func(p *sim.Proc, pool *cluster.Pool, files []cluster.File) error) (*core.System, *cluster.Pool, []cluster.File, error) {
	var files []cluster.File
	timed(&st.corpus, func() { files = corpus(seed, books, size) })
	var sys *core.System
	timed(&st.newSystem, func() { sys = core.NewSystem(cfg) })
	pool := cluster.NewPool(sys.Eng, sys.Devices)
	pool.SetObs(cfg.Obs)
	var err error
	timed(&st.stage, func() {
		err = simulate(sys, func(p *sim.Proc) error { return stage(p, pool, files) })
	})
	if err != nil {
		sys.Close()
		return nil, nil, nil, fmt.Errorf("stage: %w", err)
	}
	return sys, pool, files, nil
}

// runOp runs kernel on one file of device dev through the pool's retry
// path and records it as an op.
func runOp(p *sim.Proc, pool *cluster.Pool, dev int, kernel, name string, args []string) op {
	t0 := p.Now()
	resp, _, err := pool.RunOn(p, dev, core.Command{Exec: kernel, Args: args, InputFiles: []string{name}})
	o := op{kernel: kernel, name: name, done: p.Now(), lat: p.Now().Sub(t0), timed: true, err: err}
	if resp != nil {
		o.out = resp.Stdout
	}
	return o
}

// pick maps (seed, stream, seq) to [0, n) with a splitmix64 hash, so the
// file a request touches is a pure function of the seed.
func pick(seed int64, stream string, seq int64, n int) int {
	x := uint64(seed) ^ uint64(seq)*0x9E3779B97F4A7C15 ^ uint64(crc32.ChecksumIEEE([]byte(stream)))<<32
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// serve-mix: the kernel-bound workload. An open loop of three tenants over
// four CompStors, one of which fails slow for the middle third.
const (
	serveDevices   = 4
	serveBooks     = 32
	serveBookBytes = 32 << 10
	serveRate      = 900 // requests per virtual second, all tenants
	serveHorizon   = 750 * time.Millisecond
	// serveSlowFactor multiplies device 0's ~8µs command overhead during
	// its fail-slow window: ~50ms late per request, several times the
	// slowest healthy request, so hedges win and the health scorer trips.
	serveSlowFactor = 6000
	// serveLatencyTrip is the health scorer's latency trip, as a multiple of
	// the peer median. The mix's request costs differ ~30×, and the default
	// 4× trips healthy devices, whose quarantine then sheds background work.
	serveLatencyTrip = 8
	// serveTrafficSeed fixes the arrival times and the kernel drawn for each
	// request, so every seed offers the same work. The workload seed picks
	// the books each request reads and what they say.
	serveTrafficSeed = 1
)

func buildServeMix(seed int64, o *obs.Obs, st *setupTimes) (*testbed, error) {
	sys, pool, files, err := stageCorpus(seed, st,
		core.SystemConfig{CompStors: serveDevices, Registry: appset.Base(), Obs: o}, serveBooks, serveBookBytes,
		func(p *sim.Proc, pool *cluster.Pool, files []cluster.File) error {
			return pool.StageReplicated(p, files)
		})
	if err != nil {
		return nil, fmt.Errorf("serve-mix: %w", err)
	}
	pool.Hedge = cluster.DefaultHedgePolicy()
	pool.Health = cluster.DefaultHealthPolicy()
	pool.Health.Cooldown = serveHorizon / 8
	pool.Health.LatencyFactor = serveLatencyTrip
	pool.Budget = cluster.DefaultRetryBudget()
	pool.Retry.Jitter = true
	pool.SetSeed(seed)
	start := sys.Eng.Now().Duration()
	chaos.Install(sys, chaos.NewPlan(seed).WithDevice(0, chaos.DeviceFaults{
		FailSlowAt:     start + serveHorizon/3,
		FailSlowFor:    serveHorizon / 3,
		FailSlowFactor: serveSlowFactor,
	}))

	// issued records what each (tenant, seq) request ran; serve builds the
	// command before admission, so shed requests are recorded too.
	type reqKey struct {
		tenant string
		seq    int64
	}
	type issuedReq struct {
		kernel string
		file   cluster.File
		output string // compress tenants only
	}
	issued := map[reqKey]issuedReq{}
	book := func(tenant string, seq int64) cluster.File {
		return files[pick(seed, tenant, seq, len(files))]
	}
	scan := func(tenant, kernel string, args func(name string) []string) serve.Workload {
		return serve.Workload{Weight: 1, Cost: serveBookBytes, Make: func(seq int64) core.Command {
			f := book(tenant, seq)
			issued[reqKey{tenant, seq}] = issuedReq{kernel: kernel, file: f}
			return core.Command{Exec: kernel, Args: args(f.Name), InputFiles: []string{f.Name}}
		}}
	}
	compress := func(kernel, ext string, weight int) serve.Workload {
		return serve.Workload{Weight: weight, Cost: serveBookBytes, Make: func(seq int64) core.Command {
			f := book("compress", seq)
			out := fmt.Sprintf("out/c%05d.%s", seq, ext)
			issued[reqKey{"compress", seq}] = issuedReq{kernel: kernel, file: f, output: out}
			return core.Command{
				Script:      fmt.Sprintf("%s < %s > %s", kernel, f.Name, out),
				InputFiles:  []string{f.Name},
				OutputFiles: []string{out},
			}
		}}
	}
	poisson := func(share float64) serve.Arrival {
		return serve.Arrival{Kind: serve.Poisson, Rate: share * serveRate}
	}
	tenants := []serve.TenantSpec{
		{Name: "inter", Class: serve.Interactive, Weight: 4, Arrival: poisson(0.4),
			Workloads: []serve.Workload{scan("inter", "grep", func(n string) []string { return []string{"-c", grepWord, n} })}},
		{Name: "analytics", Class: serve.Background, Weight: 2, Arrival: poisson(0.3),
			Workloads: []serve.Workload{scan("analytics", "gawk", func(n string) []string { return []string{gawkProg, n} })}},
		{Name: "compress", Class: serve.Background, Weight: 1, Arrival: poisson(0.3),
			Workloads: []serve.Workload{compress("gzip", "gz", 2), compress("bzip2", "bz2", 1)}},
	}
	tenantOrder := map[string]int{"inter": 0, "analytics": 1, "compress": 2}
	srv := serve.New(sys.Eng, pool, o, serve.Config{
		Seed:    serveTrafficSeed,
		Horizon: serveHorizon,
		Tenants: tenants,
		Limits:  serve.Limits{MaxQueuedPerTenant: 64, MaxOutstanding: 256},
	})

	measure := func() []op {
		sys.Go("serve.start", func(*sim.Proc) { srv.Start() })
		sys.Run()
		results := append([]serve.RequestResult(nil), srv.Results()...)
		sort.Slice(results, func(i, j int) bool {
			a, b := results[i], results[j]
			if a.Tenant != b.Tenant {
				return tenantOrder[a.Tenant] < tenantOrder[b.Tenant]
			}
			return a.Seq < b.Seq
		})
		ops := make([]op, len(results))
		for i, r := range results {
			req := issued[reqKey{r.Tenant, r.Seq}]
			ops[i] = op{
				kernel: req.kernel, name: req.file.Name, input: req.file.Data,
				out: r.Output, done: r.Finished, lat: r.Latency,
				timed: r.Tenant == "inter", err: r.Err,
			}
		}
		// Read every compressed file back over the host NVMe path. Failures
		// land in the ops, so the body never returns an error.
		_ = simulate(sys, func(p *sim.Proc) error {
			for i, r := range results {
				req := issued[reqKey{r.Tenant, r.Seq}]
				if req.output == "" || r.Err != nil {
					continue
				}
				copies, err := readBack(p, pool, r.Device, req.output)
				if err != nil {
					ops[i].err = err
					continue
				}
				ops[i].out, ops[i].alt = copies[0], copies[1:]
			}
			return nil
		})
		return ops
	}
	return &testbed{sys: sys, files: files, measure: measure}, nil
}

// readBack reads a compressed output file from every device that holds
// it, starting with first. A hedged request writes a copy on both devices
// it ran on, and either may have won, so the check accepts any copy.
func readBack(p *sim.Proc, pool *cluster.Pool, first int, name string) (copies [][]byte, err error) {
	for k := 0; k < pool.Size(); k++ {
		data, rerr := pool.Unit((first+k)%pool.Size()).Client.FS().ReadFile(p, name)
		if rerr != nil {
			err = rerr
			continue
		}
		copies = append(copies, data)
	}
	if len(copies) == 0 {
		return nil, fmt.Errorf("read back %s: %w", name, err)
	}
	return copies, nil
}

// scan-wide: the engine-bound read workload. Three closed-loop passes over
// a corpus sharded across 64 CompStors.
const (
	scanDevices   = 64
	scanBooks     = 1024
	scanBookBytes = 16 << 10
)

// scanPasses are run in order by every worker over its stripe of files.
var scanPasses = []struct {
	kernel string
	args   func(name string) []string
}{
	{"grep", func(n string) []string { return []string{"-c", grepWord, n} }},
	{"wc", func(n string) []string { return []string{n} }},
	{"cksum", func(n string) []string { return []string{n} }},
}

// stageSharded stages files sharded across the pool's devices.
func stageSharded(shards *[][]cluster.File) func(*sim.Proc, *cluster.Pool, []cluster.File) error {
	return func(p *sim.Proc, pool *cluster.Pool, files []cluster.File) error {
		*shards = cluster.Shard(files, pool.Size())
		_, err := pool.Stage(p, *shards)
		return err
	}
}

func buildScanWide(seed int64, o *obs.Obs, st *setupTimes) (*testbed, error) {
	var shards [][]cluster.File
	sys, pool, files, err := stageCorpus(seed, st,
		core.SystemConfig{CompStors: scanDevices, Registry: appset.Base(), Obs: o}, scanBooks, scanBookBytes,
		stageSharded(&shards))
	if err != nil {
		return nil, fmt.Errorf("scan-wide: %w", err)
	}

	measure := func() []op {
		// ops[dev][pass*len(shard)+i] is pass over shard file i.
		ops := make([][]op, scanDevices)
		workers := pool.PerDeviceTasks
		for dev, shard := range shards {
			ops[dev] = make([]op, len(scanPasses)*len(shard))
			for w := 0; w < workers; w++ {
				dev, shard, w := dev, shard, w
				sys.Go(fmt.Sprintf("scan%d.%d", dev, w), func(p *sim.Proc) {
					for pi, pass := range scanPasses {
						for i := w; i < len(shard); i += workers {
							f := shard[i]
							o := runOp(p, pool, dev, pass.kernel, f.Name, pass.args(f.Name))
							o.input = f.Data
							ops[dev][pi*len(shard)+i] = o
						}
					}
				})
			}
		}
		sys.Run()
		return slices.Concat(ops...)
	}
	return &testbed{sys: sys, files: files, measure: measure}, nil
}

// ingest-churn: the write path. Rounds of host overwrites on small drives,
// each verified in situ by cksum.
const (
	churnDevices   = 4
	churnBooks     = 192
	churnBookBytes = 64 << 10
	churnRounds    = 12
)

// churnGeometry is 16 MiB per drive, so the rewrites drive the FTL's
// garbage collector.
var churnGeometry = flash.Geometry{Channels: 16, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 4, PagesPerBlock: 64, PageSize: 4096}

// churnVersion is the content round r writes to a file: the original book
// rotated by an offset that depends on the round and the file.
func churnVersion(buf, data []byte, r, i int) []byte {
	off := (r*7919 + i*104729) % len(data)
	buf = append(buf[:0], data[off:]...)
	return append(buf, data[:off]...)
}

func buildIngestChurn(seed int64, o *obs.Obs, st *setupTimes) (*testbed, error) {
	var shards [][]cluster.File
	sys, pool, files, err := stageCorpus(seed, st,
		core.SystemConfig{CompStors: churnDevices, Registry: appset.Base(), Geometry: churnGeometry, Obs: o}, churnBooks, churnBookBytes,
		stageSharded(&shards))
	if err != nil {
		return nil, fmt.Errorf("ingest-churn: %w", err)
	}

	measure := func() []op {
		// Per device and round: one write op per file, one flush op, then
		// one cksum op per file.
		ops := make([][]op, churnDevices)
		for dev, shard := range shards {
			dev, shard := dev, shard
			perRound := 2*len(shard) + 1
			ops[dev] = make([]op, churnRounds*perRound)
			sys.Go(fmt.Sprintf("churn%d", dev), func(p *sim.Proc) {
				view := pool.Unit(dev).Client.FS()
				var buf []byte
				want := make([][]byte, len(shard))
				for r := 0; r < churnRounds; r++ {
					row := ops[dev][r*perRound : (r+1)*perRound]
					for i, f := range shard {
						buf = churnVersion(buf, f.Data, r+1, i)
						want[i] = []byte(fmt.Sprintf("%08x %d %s\n", crc32.ChecksumIEEE(buf), len(buf), f.Name))
						t0 := p.Now()
						err := view.WriteFile(p, f.Name, buf)
						row[i] = op{kernel: "write", name: f.Name, done: p.Now(), lat: p.Now().Sub(t0), timed: true, err: err}
					}
					t0 := p.Now()
					err := view.Flush(p)
					row[len(shard)] = op{kernel: "flush", done: p.Now(), lat: p.Now().Sub(t0), err: err}
					cks := row[len(shard)+1:]
					var wg sim.WaitGroup
					wg.Add(pool.PerDeviceTasks)
					for w := 0; w < pool.PerDeviceTasks; w++ {
						w := w
						sys.Go(fmt.Sprintf("churn%d.%d", dev, w), func(sp *sim.Proc) {
							defer wg.Done()
							for i := w; i < len(shard); i += pool.PerDeviceTasks {
								name := shard[i].Name
								cks[i] = runOp(sp, pool, dev, "cksum", name, []string{name})
								cks[i].want = want[i]
							}
						})
					}
					wg.Wait(p)
				}
			})
		}
		sys.Run()
		return slices.Concat(ops...)
	}
	return &testbed{sys: sys, files: files, measure: measure}, nil
}
