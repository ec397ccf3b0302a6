package main

import (
	"strings"
	"time"

	"compstor/internal/obs"
	"compstor/internal/sim"
)

// layers are the profile's layer buckets reported as CPU shares (see
// moduleLayer); "setup" is absent because setup runs before the profile.
var layers = []string{"engine", "device", "isps", "kernels", "host", "obs", "runtime", "bench"}

// selfModules get a <module>.self_s metric: CPU seconds per iteration of
// the measured phase spent in frames of that module.
var selfModules = []string{
	"sim",
	"flash", "ftl", "ssd", "nvme", "pcie",
	"isps", "minfs",
	"awkx", "gzipx", "bzip2x", "grepx", "coreutils",
	"core", "cluster", "serve", "chaos",
	"obs",
}

// layerReadoutNames are the deterministic per-layer read-outs: counts from
// the obs snapshot and the engine's accounting, and virtual-time
// quantiles. They repeat exactly for a seed; a speed-only change must
// leave them alone.
var layerReadoutNames = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.proc_switches", "count"},
	{"sim.inline_waits", "count"},
	{"sim.max_queue_depth", "count"},
	{"flash.reads", "count"},
	{"flash.programs", "count"},
	{"flash.erases", "count"},
	{"ftl.host_writes", "count"},
	{"ftl.gc_writes", "count"},
	{"ftl.write_amp", "ratio"},
	{"nvme.commands", "count"},
	{"nvme.qd_wait_p95_ms", "sim_ms"},
	{"isps.tasks", "count"},
	{"isps.core_queue_p95_ms", "sim_ms"},
	{"isps.cancel_aborts", "count"},
	{"core.minions", "count"},
	{"cluster.task_attempts", "count"},
	{"cluster.hedge.issued", "count"},
	{"cluster.hedge.won_frac", "ratio"},
	{"cluster.health.quarantines", "count"},
	{"serve.shed", "count"},
	{"serve.wait_p95_ms", "sim_ms"},
}

// counters sums snapshot counters across devices: "compstor3.flash.reads"
// adds into "flash.reads".
type counters map[string]int64

func readCounters(o *obs.Obs) counters {
	c := counters{}
	for _, s := range o.Snapshot("").Counters {
		c[deviceless(s.Name)] += s.Value
	}
	return c
}

func deviceless(name string) string {
	rest, ok := strings.CutPrefix(name, "compstor")
	if !ok {
		return name
	}
	i := strings.IndexByte(rest, '.')
	if i <= 0 || strings.Trim(rest[:i], "0123456789") != "" {
		return name
	}
	return rest[i+1:]
}

// pooledQuantile merges every histogram whose device-less name satisfies
// match and returns the merged q-quantile.
func pooledQuantile(o *obs.Obs, match func(name string) bool, q float64) time.Duration {
	var h obs.Histogram
	for _, s := range o.Snapshot("").Histograms {
		if match(deviceless(s.Name)) {
			h.Merge(o.Histogram(s.Name))
		}
	}
	return h.Quantile(q)
}

// layerReadouts reads the deterministic layer metrics after a measured
// phase. Counters are deltas over the phase; the virtual-time quantiles
// cover the iteration, staging included.
func layerReadouts(o *obs.Obs, before counters, acct *sim.Accounting) map[string]float64 {
	after := readCounters(o)
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	is := func(want string) func(string) bool { return func(n string) bool { return n == want } }
	m := map[string]float64{
		"sim.events":                 float64(acct.Events()),
		"sim.proc_switches":          float64(acct.ProcSwitches()),
		"sim.inline_waits":           float64(acct.InlineWaits()),
		"sim.max_queue_depth":        float64(acct.MaxHeapDepth()),
		"flash.reads":                d("flash.reads"),
		"flash.programs":             d("flash.programs"),
		"flash.erases":               d("flash.erases"),
		"ftl.host_writes":            d("ftl.host_writes"),
		"ftl.gc_writes":              d("ftl.gc_writes"),
		"ftl.write_amp":              share(d("ftl.host_writes")+d("ftl.gc_writes"), d("ftl.host_writes")),
		"nvme.commands":              d("nvme.commands"),
		"nvme.qd_wait_p95_ms":        ms(pooledQuantile(o, is("nvme.qd_wait"), 0.95)),
		"isps.tasks":                 d("isps.completed") + d("isps.failed"),
		"isps.core_queue_p95_ms":     ms(pooledQuantile(o, is("isps.core_queue"), 0.95)),
		"isps.cancel_aborts":         d("isps.cancel_aborts"),
		"core.minions":               d("agent.minions"),
		"cluster.task_attempts":      d("cluster.task_attempts"),
		"cluster.hedge.issued":       d("cluster.hedge.issued"),
		"cluster.hedge.won_frac":     share(d("cluster.hedge.won"), d("cluster.hedge.issued")),
		"cluster.health.quarantines": d("cluster.health.quarantines"),
	}
	isServe := func(suffix string) func(string) bool {
		return func(n string) bool { return strings.HasPrefix(n, "serve.tenant.") && strings.HasSuffix(n, suffix) }
	}
	var shed float64
	for name := range after {
		if isServe(".shed")(name) {
			shed += d(name)
		}
	}
	m["serve.shed"] = shed
	m["serve.wait_p95_ms"] = ms(pooledQuantile(o, isServe(".wait"), 0.95))
	return m
}
