package sim

import (
	"fmt"
	"maps"
	"math/bits"
	"testing"

	"rocktm/internal/obs"
)

// audit checks the machine's per-strand state against the coherence
// directory, the one record of which strands hold, mark and write each
// line, and returns the first disagreement, or nil:
//   - a line is in a strand's L1 exactly when its directory entry has the
//     strand's present bit;
//   - written ⊆ marked, and marked ⊆ present except under a sticky design,
//     whose marks outlive their L1 copy;
//   - only a strand with an active transaction holds marks;
//   - under lazy version management, an active, undoomed attempt's written
//     lines are exactly the lines of its store queue, and its bank counts
//     count them.
//
// exempt names a strand, or is -1: txAbort emits EvTxAbort before it
// clears the aborting strand's marks, so at that event the strand's marks
// and store queue are not checked.
func (m *Machine) audit(exempt int) error {
	for _, s := range m.strands {
		for _, sl := range s.l1.slots {
			if sl.tag == -1 {
				continue
			}
			if f := m.mem.frames[sl.tag>>linePageShift]; f == nil || f.dir(sl.tag).present&s.bit == 0 {
				return fmt.Errorf("line %d is in strand %d's L1 but its present bit is clear", sl.tag, s.id)
			}
		}
	}
	written := make([]map[int32]bool, len(m.strands))
	for p, f := range m.mem.frames {
		if f == nil {
			continue
		}
		for i := range f.lines {
			lm := &f.lines[i]
			line := int32(p)<<linePageShift | int32(i)
			for rest := lm.present; rest != 0; rest &= rest - 1 {
				if s := m.strands[bits.TrailingZeros64(rest)]; s.l1.lookup(line) == -1 {
					return fmt.Errorf("line %d has strand %d's present bit but is not in its L1", line, s.id)
				}
			}
			if x := lm.written &^ lm.marked; x != 0 {
				return fmt.Errorf("line %d is written but not marked by strands %#x", line, x)
			}
			if x := lm.marked &^ lm.present; x != 0 && m.stickyCap == 0 {
				return fmt.Errorf("line %d is marked but not present for strands %#x", line, x)
			}
			for rest := lm.marked; rest != 0; rest &= rest - 1 {
				s := m.strands[bits.TrailingZeros64(rest)]
				switch {
				case s.id == exempt:
				case !s.tx.active:
					return fmt.Errorf("strand %d marks line %d outside a transaction", s.id, line)
				case lm.written&s.bit != 0:
					if written[s.id] == nil {
						written[s.id] = map[int32]bool{}
					}
					written[s.id][line] = true
				}
			}
		}
	}
	if m.vmEager {
		return nil
	}
	for _, s := range m.strands {
		if s.id == exempt || !s.tx.active || s.tx.doomed != 0 {
			continue
		}
		queued := map[int32]bool{}
		var banks [2]int
		for _, a := range s.tx.storeAddrs {
			if line := LineOf(a); !queued[line] {
				queued[line] = true
				banks[line&1]++
			}
		}
		if !maps.Equal(queued, written[s.id]) {
			return fmt.Errorf("strand %d's store queue holds lines %v, the directory says it writes %v",
				s.id, queued, written[s.id])
		}
		if banks != s.tx.bankCount {
			return fmt.Errorf("strand %d's bank counts are %v, its store queue's lines %v", s.id, s.tx.bankCount, banks)
		}
	}
	return nil
}

// auditSink audits its machine at every transaction begin, commit and
// abort, and keeps the first violation.
type auditSink struct {
	m      *Machine
	audits int
	err    error
}

// attachAudit attaches a fresh auditSink to m.
func attachAudit(m *Machine) *auditSink {
	a := &auditSink{m: m}
	m.AttachEventSink(a)
	return a
}

func (a *auditSink) SinkEvent(strand int, _ int64, kind obs.EventKind, _ uint64) {
	exempt := -1
	switch kind {
	case obs.EvTxBegin, obs.EvTxCommit:
	case obs.EvTxAbort:
		exempt = strand
	default:
		return
	}
	if a.err != nil {
		return
	}
	a.audits++
	if err := a.m.audit(exempt); err != nil {
		a.err = fmt.Errorf("audit %d, at strand %d's %v: %w", a.audits, strand, kind, err)
	}
}

// auditAccounts is the number of accounts auditTransfers moves units
// between. Each sits at the start of a page of its own: a page holds one
// line of every L1 set, so all of them share one L1 set, and five in one
// transaction overflow its four ways.
const auditAccounts = 6

// auditTransfers runs ops raw-HTM transfers on each strand of m, each
// retried up to four times, with a plain load and a plain store between
// transfers, and returns the sum of the accounts before and after. A
// transfer loads and stores back two to five accounts, moving one unit
// between the first two, and loads a shared line that the plain stores
// write, so that conflicts, set overflows, store-queue overflows and
// back-invalidations all occur.
func auditTransfers(m *Machine, ops int) (before, after Word) {
	mem := m.Mem()
	base := mem.Alloc(auditAccounts*PageWords, PageWords)
	acct := func(i int) Addr { return base + Addr(i*PageWords) }
	shared := mem.AllocLines(4 * WordsPerLine)
	for i := range auditAccounts {
		mem.Poke(acct(i), 100)
		before += 100
	}
	m.Run(func(s *Strand) {
		for i := range auditAccounts {
			s.CAS(acct(i), 0, 0) // warm the TLBs and write permission
		}
		var picked [5]Addr
		for op := range ops {
			n := 2 + s.RandIntn(4)
			for k := range n {
				picked[k] = acct(s.RandIntn(auditAccounts))
			}
			for try := 0; try < 4; try++ {
				if auditTransfer(s, picked[:n], shared+Addr(op%4*WordsPerLine)) {
					break
				}
			}
			s.Load(acct(s.RandIntn(auditAccounts)))
			s.Store(shared+Addr(s.RandIntn(4)*WordsPerLine), Word(op))
		}
	})
	for i := range auditAccounts {
		after += mem.Peek(acct(i))
	}
	return before, after
}

// auditTransfer makes one hardware attempt at moving a unit from
// accounts[0] to accounts[1], storing every other account back unchanged,
// and reports whether it committed.
func auditTransfer(s *Strand, accounts []Addr, shared Addr) bool {
	s.TxBegin()
	v, ok := s.TxLoad(shared)
	if ok {
		ok = s.TxBranch(1, v&1 == 0, true)
	}
	for k, a := range accounts {
		if !ok {
			break
		}
		if v, ok = s.TxLoad(a); ok {
			switch k {
			case 0:
				v--
			case 1:
				v++
			}
			ok = s.TxStore(a, v)
		}
	}
	return ok && s.TxCommit()
}

// TestAuditEveryDesignAndFault runs auditTransfers on four strands at
// every design point, fault profile and quantum 1, 7 and 64, with the
// default L2 and with a 32-set × 2-way one whose evictions
// back-invalidate marked lines, and audits the machine at every
// transaction begin, commit and abort and once more after the run. The
// transfers conserve the accounts' sum.
func TestAuditEveryDesignAndFault(t *testing.T) {
	const ops = 24
	audits := 0
	for _, design := range DesignPointNames() {
		for _, fault := range FaultProfileNames() {
			for _, quantum := range []int64{1, 7, 64} {
				for _, l2 := range [][2]int{{4096, 8}, {32, 2}} {
					cfg := DefaultConfig(4)
					cfg.MemWords = 1 << 16
					cfg.MaxCycles = 1 << 30
					cfg.Quantum = quantum
					cfg.L2Sets, cfg.L2Ways = l2[0], l2[1]
					cfg.HTM = DesignPoint(design)
					cfg.Faults = FaultProfile(fault)
					name := fmt.Sprintf("%s/%s/quantum=%d/l2=%dx%d", design, fault, quantum, l2[0], l2[1])
					m := New(cfg)
					sink := attachAudit(m)
					before, after := auditTransfers(m, ops)
					if sink.err == nil {
						sink.err = m.audit(-1)
					}
					m.Recycle()
					if sink.err != nil {
						t.Fatalf("%s: %v", name, sink.err)
					}
					if before != after {
						t.Fatalf("%s: the accounts sum to %d after the transfers, %d before", name, after, before)
					}
					audits += sink.audits
				}
			}
		}
	}
	t.Logf("%d audits", audits)
}
