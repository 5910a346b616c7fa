// Package obs is the machine-wide observability layer. The simulator's
// transaction and lock hook points feed one stream of cycle-timestamped
// events to every attached EventSink, and each consumer is just one sink
// on that list: the Tracer behind the Chrome trace export, the
// AbortProfile fold behind the paper's Table 4-style "why did transactions
// fail" breakdowns, and the windowed recorder in obs/timeseries.
//
// The design constraint, inherited from the paper's methodology, is that
// observing the system must not change it: recording an event charges no
// simulated cycles and consumes no simulated randomness, so a traced run
// is cycle-for-cycle identical to an untraced one (asserted by tests). A machine with no sink attached pays one loop
// over an empty list per hook point.
//
// obs sits below internal/sim in the import graph (sim calls into obs, not
// the other way around), so events carry plain strand IDs and cycle counts
// rather than simulator types.
package obs

import "rocktm/internal/cps"

// EventKind identifies what happened at a trace hook point.
type EventKind uint8

// Event kinds. The Arg field's meaning depends on the kind.
const (
	// EvNone is the zero value; it never appears in a recorded stream.
	EvNone EventKind = iota
	// EvTxBegin marks a hardware transaction checkpoint (chkpt). Arg is 0.
	EvTxBegin
	// EvTxCommit marks a successful hardware commit. Arg is the number of
	// store-queue entries drained.
	EvTxCommit
	// EvTxAbort marks a hardware transaction failure. Arg holds the CPS
	// register bits explaining why.
	EvTxAbort
	// EvLockAcquire marks a lock acquisition. Arg is the lock word's
	// simulated address.
	EvLockAcquire
	// EvLockRelease marks a lock release. Arg is the lock word's address.
	EvLockRelease
	// EvModeSoftware marks a PhTM-style transition of the whole system into
	// its software phase. Arg is the software-hold countdown installed.
	EvModeSoftware
	// EvModeHardware marks the drift back into the hardware phase. Arg is 0.
	EvModeHardware
	// EvFallback marks one atomic block exhausting its hardware budget and
	// falling back to its software or lock path. Arg is the fallback lock's
	// address where one exists, else 0.
	EvFallback
	// EvSWCommit marks a software (STM) transaction commit. Arg is 0.
	EvSWCommit
	// EvSWAbort marks a software (STM) transaction abort-and-retry. Arg is 0.
	EvSWAbort

	numEventKinds
)

var kindNames = [numEventKinds]string{
	EvNone:         "none",
	EvTxBegin:      "tx-begin",
	EvTxCommit:     "tx-commit",
	EvTxAbort:      "tx-abort",
	EvLockAcquire:  "lock-acquire",
	EvLockRelease:  "lock-release",
	EvModeSoftware: "mode-software",
	EvModeHardware: "mode-hardware",
	EvFallback:     "sw-fallback",
	EvSWCommit:     "sw-commit",
	EvSWAbort:      "sw-abort",
}

// String returns the stable lowercase mnemonic used in exports.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one cycle-timestamped trace record. It is a fixed-size value so
// per-strand logs hold events inline with no per-record allocation.
type Event struct {
	// Cycle is the strand's virtual-time clock when the event occurred.
	Cycle int64
	// Arg carries kind-specific detail (CPS bits, lock address, ...).
	Arg uint64
	// Strand is the recording strand's ID.
	Strand int32
	// Kind says what happened.
	Kind EventKind
}

// CPS interprets Arg as CPS register bits (meaningful for EvTxAbort).
func (e Event) CPS() cps.Bits { return cps.Bits(e.Arg) }

// EventSink receives the simulator's hook-point stream, one call per event,
// as it happens (attach one with sim.Machine.AttachEventSink). The Tracer
// keeps the whole stream; a fold such as AbortProfile or the windowed
// timeseries recorder keeps only its own aggregate.
//
// Implementations must obey the observation contract: SinkEvent charges no
// simulated cycles and consumes no simulated randomness, so a run with a
// sink attached is cycle-identical to one without. The folds' steady-state
// path is allocation-free; the Tracer allocates only when a log grows.
type EventSink interface {
	SinkEvent(strand int, cycle int64, kind EventKind, arg uint64)
}
