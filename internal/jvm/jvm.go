// Package jvm models the slice of a JVM that Section 7.2's experiments
// depend on: object monitors (the synchronized keyword) that a TLE-enabled
// JVM elides using best-effort hardware transactions, guided by the CPS
// register; and a JIT compiler whose inlining decisions determine whether
// the code inside a monitor contains function calls — the save/restore
// pairs that doom Rock transactions (the paper's HashMap anecdote).
package jvm

import (
	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/tle"
)

// JVM is one virtual machine instance: a TLE engine shared by all monitors
// plus a global switch corresponding to enabling the feature.
type JVM struct {
	engine *tle.System
	// Elide enables lock elision for contended monitors. When false,
	// synchronized blocks always acquire their monitor — but if EmitTLE is
	// set the dispatch overhead of the emitted elision code is still paid,
	// the "code bloat" configuration the paper measures with VolanoMark.
	Elide bool
	// EmitTLE models whether the JIT emitted the elision code paths at all.
	EmitTLE bool
}

// New builds a JVM for machine m whose monitors elide under pol
// (tle.DefaultPolicy is the CPS-guided one).
func New(m *sim.Machine, pol policy.Policy) *JVM {
	// The engine's own lock is unused (monitors carry theirs); it exists to
	// satisfy construction.
	engine := tle.New("jvm-tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, pol)
	return &JVM{engine: engine, Elide: true, EmitTLE: true}
}

// Stats returns the cumulative elision statistics across all monitors.
func (j *JVM) Stats() *core.Stats { return j.engine.Stats() }

// SetThrottle installs an adaptive concurrency limiter on the JVM's
// elision engine (the Section 7.2 future-work extension).
func (j *JVM) SetThrottle(th *tle.Throttle) { j.engine.SetThrottle(th) }

// Monitor is one object's lock.
type Monitor struct {
	lock *locktm.SpinLock
}

// NewMonitor allocates a monitor.
func (j *JVM) NewMonitor(m *sim.Machine) *Monitor {
	return &Monitor{lock: locktm.NewSpinLock(m.Mem())}
}

// Synchronized executes body as a synchronized block on mon. With elision
// enabled the block is attempted as a hardware transaction first; otherwise
// the monitor is acquired outright.
func (j *JVM) Synchronized(s *sim.Strand, mon *Monitor, body func(core.Ctx)) {
	if j.EmitTLE {
		// The emitted elision path costs a little code-cache and register
		// pressure even when the feature is off (Section 7.2 measures ~3%
		// on VolanoMark).
		s.Advance(3)
	}
	if j.EmitTLE && j.Elide {
		j.engine.Execute(s, tle.SpinAdapter{L: mon.lock}, body, false)
		return
	}
	mon.lock.Acquire(s)
	body(core.Raw{S: s})
	mon.lock.Release(s)
	st := j.engine.Stats()
	st.Ops++
	st.LockAcquires++
}

// CallSite models one JIT call site. While the callee is inlined the
// synchronized body is call-free; once the JIT recompiles and outlines it,
// every execution performs a real call — and inside an elided transaction
// that save/restore aborts with CPS=INST, sending the block to the lock
// (the HashMap put regression of Section 7.2).
type CallSite struct {
	// OutlineAfter is the invocation count at which the JIT revisits its
	// decision and outlines the callee; 0 keeps it inlined forever.
	OutlineAfter int
	invocations  int
}

// Invoke declares one execution of the call site within ctx.
func (cs *CallSite) Invoke(c core.Ctx) {
	cs.invocations++
	if cs.OutlineAfter > 0 && cs.invocations > cs.OutlineAfter {
		c.Call()
	}
}

// Outlined reports whether the site has been outlined yet.
func (cs *CallSite) Outlined() bool {
	return cs.OutlineAfter > 0 && cs.invocations > cs.OutlineAfter
}
