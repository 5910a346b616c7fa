// Package timeseries is the time-resolved layer of the observability
// stack: a windowed recorder that folds the simulator's hook-point event
// stream (transaction begin/commit/abort with CPS bits, software
// fallbacks, PhTM phase transitions, lock acquire/release), as one more
// obs.EventSink on the machine, and the workload driver's per-operation
// latencies into fixed-width simulated-cycle windows. Where the run-wide
// counters, abort fold and latency histogram answer "how did the run do
// overall", the window series answers "when did it go wrong" — the
// phase-flip drains and fallback convoys that aggregate numbers hide
// (EXPERIMENTS.md E23).
//
// On top of the raw series sit two consumers:
//
//   - pathology detectors (detect.go) that scan a series for named
//     failure signatures — phase-flip drain, lemming convoy, hot-key
//     abort storm, capacity-hopeless loop — and emit structured findings
//     with window ranges and evidence;
//   - an SLO engine (slo.go) that evaluates a declared latency objective
//     ("p99.9 <= N cycles in 99.9% of windows") per window and reports a
//     pass/fail verdict with the error-budget burn rate.
//
// The recorder obeys the repository's zero-perturbation contract (see
// internal/obs): recording charges no simulated cycles, draws no
// simulated randomness, and the steady-state intake path (an event or
// latency sample landing in an existing window) allocates nothing, so a
// run with capture enabled is cycle-identical to one without. Window
// rollover draws the new window's latency histogram from obs's recorder
// pool, and Recorder.Recycle returns them — a host-side cost that cannot
// perturb virtual time.
package timeseries

import (
	"rocktm/internal/cps"
	"rocktm/internal/obs"
)

// DefaultWidth is the default window width in simulated cycles: wide
// enough that a window at experiment scale holds hundreds of operations
// (stable percentiles), narrow enough that a PhTM software-phase drain
// (tens of thousands of cycles) spans its own windows instead of
// averaging away.
const DefaultWidth = 32768

// MinWidth bounds the window width from below: narrower windows would
// make pathological runs allocate unbounded window arrays.
const MinWidth = 256

// window accumulates one fixed-width interval of the run. Counters are
// folded in as events arrive; the latency histogram is drawn lazily on
// the window's first operation completion.
type window struct {
	begins    uint64
	commits   uint64
	aborts    uint64
	swCommits uint64
	swAborts  uint64
	fallbacks uint64
	toSW      uint64
	toHW      uint64
	lockAcqs  uint64
	lockHold  int64
	cpsBits   [numCPSBits]uint64
	lat       *obs.LatencyRecorder
}

// numCPSBits mirrors len(cps.All); asserted equal at init so the window
// array stays in lockstep with the CPS register definition.
const numCPSBits = 12

func init() {
	if len(cps.All) != numCPSBits {
		panic("timeseries: numCPSBits out of sync with cps.All")
	}
}

// lockSlot tracks one strand's most recent open lock acquisition so hold
// time can be attributed to the release window. Strands in this codebase
// hold at most one elision/fallback lock at a time; a nested acquire
// simply replaces the slot (the outer hold is then not attributed —
// counts remain exact either way).
type lockSlot struct {
	addr  uint64
	cycle int64
	open  bool
}

// Recorder folds hook-point events and operation latencies into
// fixed-width simulated-cycle windows. It implements obs.EventSink (feed
// it via sim.Machine.AttachEventSink) and obs.LatencySink (feed it via
// workload.Driver.Observe). All intake happens under the machine baton,
// so the recorder needs no synchronization.
type Recorder struct {
	width   int64
	freqGHz float64
	windows []window
	locks   []lockSlot
}

// NewRecorder builds a recorder with the given window width in simulated
// cycles (<=0 selects DefaultWidth; narrower than MinWidth is clamped).
func NewRecorder(width int64) *Recorder {
	if width <= 0 {
		width = DefaultWidth
	}
	if width < MinWidth {
		width = MinWidth
	}
	return &Recorder{width: width, freqGHz: 1}
}

// SetFreqGHz records the simulated clock frequency used to convert
// per-window operation counts into ops/usec throughput.
func (r *Recorder) SetFreqGHz(f float64) {
	if f > 0 {
		r.freqGHz = f
	}
}

// Width returns the window width in cycles.
func (r *Recorder) Width() int64 { return r.width }

// at returns the window covering cycle, growing the series as the run's
// clock advances. Growth is amortized append; within a window the lookup
// is two integer ops and a bounds check.
func (r *Recorder) at(cycle int64) *window {
	if cycle < 0 {
		cycle = 0
	}
	idx := int(cycle / r.width)
	for len(r.windows) <= idx {
		r.windows = append(r.windows, window{})
	}
	return &r.windows[idx]
}

// lock returns strand's lock slot, growing the per-strand table on first
// contact (bounded by the machine's strand count).
func (r *Recorder) lock(strand int) *lockSlot {
	for len(r.locks) <= strand {
		r.locks = append(r.locks, lockSlot{})
	}
	return &r.locks[strand]
}

// SinkEvent implements obs.EventSink: it folds one hook-point event into
// the window covering its cycle.
func (r *Recorder) SinkEvent(strand int, cycle int64, kind obs.EventKind, arg uint64) {
	w := r.at(cycle)
	switch kind {
	case obs.EvTxBegin:
		w.begins++
	case obs.EvTxCommit:
		w.commits++
	case obs.EvTxAbort:
		w.aborts++
		bits := cps.Bits(arg)
		for i, b := range cps.All {
			if bits&b != 0 {
				w.cpsBits[i]++
			}
		}
	case obs.EvSWCommit:
		w.swCommits++
	case obs.EvSWAbort:
		w.swAborts++
	case obs.EvFallback:
		w.fallbacks++
	case obs.EvModeSoftware:
		w.toSW++
	case obs.EvModeHardware:
		w.toHW++
	case obs.EvLockAcquire:
		w.lockAcqs++
		*r.lock(strand) = lockSlot{addr: arg, cycle: cycle, open: true}
	case obs.EvLockRelease:
		if sl := r.lock(strand); sl.open && sl.addr == arg {
			sl.open = false
			// Hold time is attributed to the release window: the hold is
			// only known complete then, and the attribution question only
			// matters at window granularity.
			w.lockHold += cycle - sl.cycle
		}
	}
}

// RecordLatencyAt implements obs.LatencySink: one operation completed at
// cycle after latency cycles of begin-to-completion time (retries,
// backoff and queueing included). The operation is attributed to its
// completion window.
func (r *Recorder) RecordLatencyAt(cycle, latency int64) {
	w := r.at(cycle)
	if w.lat == nil {
		w.lat = obs.NewLatencyRecorder()
	}
	w.lat.Record(latency)
}

// Recycle hands every window's latency histogram back to the pool that
// obs.NewLatencyRecorder draws from and drops the windows. Call it only
// after the recorder's last use (take its Series first).
func (r *Recorder) Recycle() {
	for i := range r.windows {
		if lat := r.windows[i].lat; lat != nil {
			lat.Recycle()
		}
	}
	r.windows = nil
}

// WindowStats is the published, JSON-stable view of one window. Rates and
// percentiles are precomputed so a series survives the experiment
// runner's content-addressed cache byte-identically.
type WindowStats struct {
	// Index is the window's position; it covers simulated cycles
	// [Index*Width, (Index+1)*Width).
	Index      int   `json:"index"`
	StartCycle int64 `json:"start_cycle"`

	// Ops is the number of operations that completed in the window;
	// Throughput is the same information as ops per simulated microsecond.
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"ops_per_usec"`

	// Hardware-transaction flow.
	Begins  uint64 `json:"tx_begins,omitempty"`
	Commits uint64 `json:"tx_commits,omitempty"`
	Aborts  uint64 `json:"tx_aborts,omitempty"`
	// AbortRate is aborts / (aborts + commits) over the window's hardware
	// attempts (0 when there were none).
	AbortRate float64 `json:"abort_rate,omitempty"`
	// CPS counts, per bit mnemonic, how many aborts in the window carried
	// that CPS bit (one abort can carry several).
	CPS map[string]uint64 `json:"cps,omitempty"`

	// Software-path flow: STM commits/aborts, fallback events, and PhTM
	// phase transitions observed in the window.
	SWCommits  uint64 `json:"sw_commits,omitempty"`
	SWAborts   uint64 `json:"sw_aborts,omitempty"`
	Fallbacks  uint64 `json:"fallbacks,omitempty"`
	ToSoftware uint64 `json:"to_software,omitempty"`
	ToHardware uint64 `json:"to_hardware,omitempty"`
	// FallbackFrac is the fraction of the window's completions that took a
	// software or lock path: (sw_commits + fallbacks) / (tx_commits +
	// sw_commits + fallbacks). For PhTM it tracks the software-phase
	// fraction; for TLE the lock-fallback fraction.
	FallbackFrac float64 `json:"fallback_frac,omitempty"`

	// Lock traffic: acquisitions and total hold cycles (attributed to the
	// window the lock was released in).
	LockAcquires   uint64 `json:"lock_acquires,omitempty"`
	LockHoldCycles int64  `json:"lock_hold_cycles,omitempty"`

	// Log-bucketed latency percentiles of the operations that completed
	// in the window, in simulated cycles (all zero when Ops is 0).
	P50  int64 `json:"p50,omitempty"`
	P90  int64 `json:"p90,omitempty"`
	P99  int64 `json:"p99,omitempty"`
	P999 int64 `json:"p999,omitempty"`
	Max  int64 `json:"max,omitempty"`
}

// Series is a finished run's window sequence plus the constants needed to
// interpret it. It is the exchange format between the recorder and the
// detector/SLO layers, and it is what rides through the runner cache.
type Series struct {
	WidthCycles int64         `json:"width_cycles"`
	FreqGHz     float64       `json:"freq_ghz"`
	Windows     []WindowStats `json:"windows"`
}

// Series snapshots the recorder into its published form. Trailing windows
// are truncated after the last one with any activity; interior quiet
// windows are kept so the time axis stays honest.
func (r *Recorder) Series() Series {
	s := Series{WidthCycles: r.width, FreqGHz: r.freqGHz}
	last := -1
	for i := range r.windows {
		if r.windows[i].active() {
			last = i
		}
	}
	if last >= 0 {
		s.Windows = make([]WindowStats, 0, last+1)
	}
	usPerWindow := float64(r.width) / (r.freqGHz * 1e3)
	for i := 0; i <= last; i++ {
		w := &r.windows[i]
		ws := WindowStats{
			Index:          i,
			StartCycle:     int64(i) * r.width,
			Begins:         w.begins,
			Commits:        w.commits,
			Aborts:         w.aborts,
			SWCommits:      w.swCommits,
			SWAborts:       w.swAborts,
			Fallbacks:      w.fallbacks,
			ToSoftware:     w.toSW,
			ToHardware:     w.toHW,
			LockAcquires:   w.lockAcqs,
			LockHoldCycles: w.lockHold,
		}
		if att := w.aborts + w.commits; att > 0 {
			ws.AbortRate = float64(w.aborts) / float64(att)
		}
		if done := w.commits + w.swCommits + w.fallbacks; done > 0 {
			ws.FallbackFrac = float64(w.swCommits+w.fallbacks) / float64(done)
		}
		for bi, b := range cps.All {
			if w.cpsBits[bi] > 0 {
				if ws.CPS == nil {
					ws.CPS = make(map[string]uint64, 4)
				}
				ws.CPS[cps.Name(b)] = w.cpsBits[bi]
			}
		}
		if w.lat != nil {
			sum := w.lat.Summarize()
			ws.Ops = sum.Count
			ws.Throughput = float64(sum.Count) / usPerWindow
			ws.P50, ws.P90, ws.P99, ws.P999, ws.Max = sum.P50, sum.P90, sum.P99, sum.P999, sum.Max
		}
		s.Windows = append(s.Windows, ws)
	}
	return s
}

// active reports whether anything at all landed in the window.
func (w *window) active() bool {
	return w.begins|w.commits|w.aborts|w.swCommits|w.swAborts|
		w.fallbacks|w.toSW|w.toHW|w.lockAcqs != 0 ||
		w.lockHold != 0 || (w.lat != nil && w.lat.Count() > 0)
}

// EndCycle returns the exclusive upper cycle bound of window w.
func (s Series) EndCycle(w WindowStats) int64 { return w.StartCycle + s.WidthCycles }

// CPSShare returns the fraction of the window's aborts that carried any
// bit of mask (0 when the window had no aborts).
func (w WindowStats) CPSShare(mask cps.Bits) float64 {
	if w.Aborts == 0 {
		return 0
	}
	var n uint64
	for _, b := range cps.All {
		if mask&b != 0 {
			n += w.CPS[cps.Name(b)]
		}
	}
	// One abort can carry several bits of the mask; the share is an upper
	// bound and is clamped so callers can treat it as a fraction.
	f := float64(n) / float64(w.Aborts)
	if f > 1 {
		f = 1
	}
	return f
}
