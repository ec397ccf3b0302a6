//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: model code whose execution is interleaved
// with the engine so that exactly one process (or event callback) runs at a
// time. Model code inside a process advances virtual time with Wait, blocks
// on resources with Acquire/Transfer/Recv, and never needs locks.
//
// A Proc is backed by a pooled worker coroutine (see worker below). Pure
// delays on untraced procs complete inline on the engine side without waking
// the coroutine at all; the worker is only involved when the proc genuinely
// has to give way to another event.
//
// A Proc must only call its blocking methods from its own body function.
type Proc struct {
	eng       *Engine
	name      string
	lbl       uint32 // interned accounting label (name with digits stripped)
	w         *worker
	body      func(p *Proc)
	pendingFn func() Time // engine-side continuation armed by WaitFn
	done      bool
	obsCtx    any
}

// worker is a pooled iter.Pull coroutine executing proc bodies. next hands
// control from the engine to the bound proc until it parks or returns; the
// proc hands it back through yield. The runtime switches directly between
// the two goroutines, without a trip through the scheduler. When a body
// returns, the worker yields and the engine rebinds it to the next Go
// instead of creating a fresh coroutine — this is what keeps
// peak_goroutines near the number of concurrently live procs.
type worker struct {
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// killedProc is the panic payload park raises when Shutdown stops a parked
// proc's coroutine, unwinding the body so its defers run. It is the only
// panic the worker swallows.
type killedProc struct{}

// newWorker creates an idle worker and registers it for Shutdown. The
// coroutine is started right away and parks in its first yield, so its
// one-time start-up cost is paid here rather than by the first proc bound
// to it.
func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	w.next()
	e.allW = append(e.allW, w)
	return w
}

// loop is the coroutine body: between procs it waits in yield, and each
// resumption runs the proc bound by then until it parks or returns. A false
// yield means Shutdown stopped the coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for yield(struct{}{}) {
		runBody(w.p)
	}
}

// runBody runs one proc body to completion. A killedProc unwind ends the
// body quietly. Any other panic is re-raised as a procPanic: iter.Pull
// re-panics in the engine's goroutine with the value alone, so the proc's
// name and stack must travel inside it.
func runBody(p *Proc) {
	defer func() {
		p.done = true
		if r := recover(); r != nil {
			if _, ok := r.(killedProc); !ok {
				panic(&procPanic{proc: p.name, value: r, stack: debug.Stack()})
			}
		}
	}()
	p.body(p)
}

// procPanic carries a panic out of a proc body to the caller of Run.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (pp *procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.proc, pp.value, pp.stack)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (pp *procPanic) Unwrap() error {
	err, _ := pp.value.(error)
	return err
}

// Go starts a new simulated process executing body. The process begins at
// the current virtual time (after already-scheduled events at that time).
// The name is used in diagnostics and scheduler accounting only.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go after Shutdown")
	}
	p := &Proc{eng: e, name: name, lbl: e.intern(accountLabel(name)), body: body}
	if a := e.acct; a != nil {
		a.procsStarted++
	}
	var w *worker
	if n := len(e.freeW); n > 0 {
		w = e.freeW[n-1]
		e.freeW[n-1] = nil
		e.freeW = e.freeW[:n-1]
		if a := e.acct; a != nil {
			a.procsReused++
		}
	} else {
		w = e.newWorker()
	}
	w.p = p
	p.w = w
	e.schedule(e.now, p.lbl, p, nil)
	return p
}

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// ObsCtx returns the process's observability context, an opaque value owned
// by the obs package (the currently open span). The sim kernel never
// interprets it; it exists so tracers can follow a request across blocking
// calls without sim importing obs.
func (p *Proc) ObsCtx() any { return p.obsCtx }

// SetObsCtx replaces the process's observability context. Fan-out helpers
// that spawn worker processes on behalf of a request should copy the
// parent's context onto the workers so child spans parent correctly.
func (p *Proc) SetObsCtx(v any) { p.obsCtx = v }

// stepProc hands control to the process's worker coroutine and returns when
// the process blocks or finishes. It runs on the engine side, inside an
// event dispatch.
func (e *Engine) stepProc(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: process %q resumed after completion", p.name))
	}
	if a := e.acct; a != nil {
		a.procSwitches++
	}
	w := p.w
	w.next()
	if p.done {
		// Body returned: unbind and recycle the worker for the next Go.
		w.p = nil
		p.w = nil
		p.body = nil
		e.freeW = append(e.freeW, w)
	}
}

// park yields control back to the engine without scheduling a resumption.
// Something else must later call p.unpark (or schedule a resume) or the
// process sleeps forever.
func (p *Proc) park() {
	if !p.w.yield(struct{}{}) {
		panic(killedProc{}) // Shutdown stopped the coroutine
	}
}

// unpark schedules the process to resume at the current virtual time. It
// must be called from engine context (an event callback or another process)
// while p is parked.
func (p *Proc) unpark() {
	p.eng.schedule(p.eng.now, p.lbl, p, nil)
}

// Wait advances the process's virtual time by d. Other events and processes
// run in the meantime.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic("sim: negative wait")
	}
	p.waitUntil(p.eng.now.Add(d))
}

// WaitUntil sleeps the process until virtual time t. If t is in the past it
// returns immediately (yielding once).
func (p *Proc) WaitUntil(t Time) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.waitUntil(t)
}

func (p *Proc) waitUntil(t Time) {
	e := p.eng
	if e.canInline(p, t) {
		e.inlineAdvance(p, t)
		return
	}
	e.schedule(t, p.lbl, p, nil)
	p.park()
}

// WaitFn advances the process by d, runs fn in engine context at that
// instant, and continues at the Time fn returns (>= that instant; returning
// it exactly resumes the proc within the same event). It exists for model
// hot paths whose "work" between two waits is pure bookkeeping — the flash
// die release + bus hand-off, for example — collapsing wait/compute/wait
// into at most one goroutine switch (zero when both hops inline). fn must
// not call blocking Proc methods.
func (p *Proc) WaitFn(d Duration, fn func() Time) {
	if d < 0 {
		panic("sim: negative wait")
	}
	e := p.eng
	t := e.now.Add(d)
	if e.canInline(p, t) {
		e.inlineAdvance(p, t)
		done := fn()
		switch {
		case done == e.now:
			return
		case done < e.now:
			panic("sim: WaitFn continuation returned a past time")
		}
		if e.canInline(p, done) {
			e.inlineAdvance(p, done)
			return
		}
		e.schedule(done, p.lbl, p, nil)
		p.park()
		return
	}
	p.pendingFn = fn
	e.schedule(t, p.lbl, p, nil)
	p.park()
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Wait(0) }
