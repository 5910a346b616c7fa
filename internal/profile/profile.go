// Package profile reimplements the transaction-failure analysis of Section
// 6.1. The paper's trick: with a fixed random seed the operation sequence
// is deterministic, so one run under PhTM records which operations failed
// to complete as hardware transactions, and a second, identical run under
// the STM — with a commit-time callback capturing each transaction's read
// and write sets — attributes microarchitectural profiles to exactly those
// operations. Comparing the profiles of operations that succeeded in
// hardware with those that did not is what let the authors rule out cache-
// set overflow and store-queue overflow, and blame deferred-queue overflow
// from cache misses instead.
package profile

import (
	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/rbtree"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/workload"
)

// OpKind is the red-black tree operation type.
type OpKind int

// Operation kinds.
const (
	OpGet OpKind = iota
	OpInsert
	OpDelete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "Get"
	case OpInsert:
		return "Insert"
	default:
		return "Delete"
	}
}

// OpProfile is the Section 6.1 per-operation record.
type OpProfile struct {
	Kind OpKind
	// FailedToSoftware marks operations whose hardware attempts were
	// exhausted in the PhTM run.
	FailedToSoftware bool
	// HWAttempts is how many hardware tries the operation took.
	HWAttempts uint64
	// CPS aggregates the CPS values of this op's failed attempts.
	CPS []cps.Bits
	// ReadLines is the read-set size in cache lines.
	ReadLines int
	// MaxLinesPerSet is the largest number of read-set lines mapping to a
	// single 4-way L1 set.
	MaxLinesPerSet int
	// WriteLines and WriteWords size the write set.
	WriteLines, WriteWords int
	// BankLines is the write set's distinct lines split across the two
	// store-queue banks (the queue coalesces same-line stores, so this is
	// the occupancy that matters against the 16-entry banks). BankWords is
	// the raw word count the paper's Section 6.1 also reports.
	BankLines [2]int
	BankWords [2]int
	// Upgrades counts lines read before being written.
	Upgrades int
}

// recorder captures read/write sets through a wrapped Ctx: it embeds the
// Ctx it wraps and overrides only Load and Store. All of its state
// (including the fill scratch map) is reused across operations, so
// recording an operation is allocation-free in the steady state — the
// property BenchmarkRecorderOp and TestRecorderSteadyStateAllocFree guard.
type recorder struct {
	core.Ctx

	readLines  map[int32]struct{}
	writeLines map[int32]struct{}
	perSet     map[int]int // fill scratch: read lines per L1 set
	writeWords int
	bank       [2]int
	bankLines  [2]int
	upgrades   int
}

func newRecorder() *recorder {
	return &recorder{
		readLines:  make(map[int32]struct{}),
		writeLines: make(map[int32]struct{}),
		perSet:     make(map[int]int),
	}
}

func (r *recorder) reset(inner core.Ctx) {
	r.Ctx = inner
	clear(r.readLines)
	clear(r.writeLines)
	r.writeWords = 0
	r.bank = [2]int{}
	r.bankLines = [2]int{}
	r.upgrades = 0
}

// Load implements core.Ctx.
func (r *recorder) Load(a sim.Addr) sim.Word {
	r.readLines[sim.LineOf(a)] = struct{}{}
	return r.Ctx.Load(a)
}

// Store implements core.Ctx.
func (r *recorder) Store(a sim.Addr, w sim.Word) {
	line := sim.LineOf(a)
	if _, written := r.writeLines[line]; !written {
		if _, read := r.readLines[line]; read {
			r.upgrades++
		}
		r.writeLines[line] = struct{}{}
		r.bankLines[line&1]++
	}
	r.readLines[line] = struct{}{}
	r.writeWords++
	r.bank[line&1]++
	r.Ctx.Store(a, w)
}

func (r *recorder) fill(p *OpProfile) {
	p.ReadLines = len(r.readLines)
	perSet := r.perSet
	clear(perSet)
	for line := range r.readLines {
		perSet[int(line)%sim.L1Sets]++
	}
	for _, n := range perSet {
		if n > p.MaxLinesPerSet {
			p.MaxLinesPerSet = n
		}
	}
	p.WriteLines = len(r.writeLines)
	p.WriteWords = r.writeWords
	p.BankWords = r.bank
	p.BankLines = r.bankLines
	p.Upgrades = r.upgrades
}

// Config parameterizes a profiling run.
type Config struct {
	TreeKeys   int // key range; the tree is prepopulated with half of it
	Ops        int
	PctGet     int // percentage of Get operations
	PctInsert  int // percentage of Insert operations (rest are Delete)
	Seed       uint64
	MaxHWTries float64 // PhTM hardware budget per op
}

// opSequence deterministically derives the op stream from the seed.
func opSequence(cfg Config) []struct {
	kind OpKind
	key  uint64
} {
	state := cfg.Seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	ops := make([]struct {
		kind OpKind
		key  uint64
	}, cfg.Ops)
	for i := range ops {
		r := int(next() % 100)
		switch {
		case r < cfg.PctGet:
			ops[i].kind = OpGet
		case r < cfg.PctGet+cfg.PctInsert:
			ops[i].kind = OpInsert
		default:
			ops[i].kind = OpDelete
		}
		ops[i].key = next() % uint64(cfg.TreeKeys)
	}
	return ops
}

func machine() *sim.Machine {
	mcfg := sim.DefaultConfig(1)
	mcfg.MemWords = 1 << 23
	mcfg.MaxCycles = 1 << 44
	return sim.New(mcfg)
}

// Run executes the two-phase analysis and returns the per-op profiles.
func Run(cfg Config) []OpProfile {
	if cfg.MaxHWTries == 0 {
		cfg.MaxHWTries = policy.PhTM().Budget
	}
	ops := opSequence(cfg)
	profiles := make([]OpProfile, len(ops))
	for i := range profiles {
		profiles[i].Kind = ops[i].kind
	}

	// Phase 1: PhTM run; record which ops fell to software and their CPS
	// values.
	{
		m := machine()
		tree := rbtree.New(m, cfg.TreeKeys+64)
		tree.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(cfg.TreeKeys, cfg.Seed*31+11), 1)
		back := sky.New(m)
		t := policy.PhTM()
		t.Budget = cfg.MaxHWTries
		pcfg := phtm.DefaultConfig()
		pcfg.Policy = policy.MustNew("paper", t)
		sys := phtm.New(m, back, pcfg)
		m.Run(func(s *sim.Strand) {
			for i, op := range ops {
				before := sys.Stats()
				runOp(tree, sys, s, op.kind, op.key, nil)
				after := sys.Stats()
				profiles[i].HWAttempts = after.HWAttempts - before.HWAttempts
				profiles[i].FailedToSoftware = after.SWCommits > before.SWCommits
				profiles[i].CPS = append(profiles[i].CPS, obs.CPSDelta(before.CPSHist, after.CPSHist)...)
			}
		})
		m.Recycle()
	}

	// Phase 2: identical STM-only run with the commit-time recorder.
	{
		m := machine()
		tree := rbtree.New(m, cfg.TreeKeys+64)
		tree.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(cfg.TreeKeys, cfg.Seed*31+11), 1)
		sys := sky.New(m)
		rec := newRecorder()
		m.Run(func(s *sim.Strand) {
			for i, op := range ops {
				runOp(tree, sys, s, op.kind, op.key, func(inner core.Ctx) core.Ctx {
					rec.reset(inner)
					return rec
				})
				rec.fill(&profiles[i])
			}
		})
		m.Recycle()
	}
	return profiles
}

// runOp performs one tree operation under sys, optionally wrapping the Ctx.
func runOp(tree *rbtree.Tree, sys core.System, s *sim.Strand, kind OpKind, key uint64,
	wrap func(core.Ctx) core.Ctx) {
	switch kind {
	case OpGet:
		sys.AtomicRO(s, func(c core.Ctx) {
			if wrap != nil {
				c = wrap(c)
			}
			tree.Lookup(c, key)
		})
	case OpInsert:
		node := tree.AllocNode(s, key, 1)
		inserted := false
		sys.Atomic(s, func(c core.Ctx) {
			if wrap != nil {
				c = wrap(c)
			}
			inserted = tree.InsertNode(c, key, node)
		})
		if !inserted {
			tree.FreeNode(s, node)
		}
	case OpDelete:
		var removed sim.Addr
		sys.Atomic(s, func(c core.Ctx) {
			if wrap != nil {
				c = wrap(c)
			}
			removed = tree.DeleteNode(c, key)
		})
		if removed != 0 {
			tree.FreeNode(s, removed)
		}
	}
}

// Summary aggregates profiles into the comparison the paper draws.
type Summary struct {
	Ops            int
	Failed         int
	MaxReadLines   [2]int // [succeeded, failed]
	MaxLinesPerSet [2]int
	MaxWriteWords  [2]int
	MeanReadLines  [2]float64
	SetOverflows   [2]int // ops with >4 lines in one L1 set
	BankOverflows  [2]int // ops with >16 words in one store bank
	CPSHist        *cps.Histogram
}

// Summarize folds per-op profiles into a Summary.
func Summarize(profiles []OpProfile) Summary {
	sum := Summary{CPSHist: cps.NewHistogram()}
	var totalRead [2]int
	var count [2]int
	for _, p := range profiles {
		idx := 0
		if p.FailedToSoftware {
			idx = 1
			sum.Failed++
		}
		sum.Ops++
		count[idx]++
		totalRead[idx] += p.ReadLines
		if p.ReadLines > sum.MaxReadLines[idx] {
			sum.MaxReadLines[idx] = p.ReadLines
		}
		if p.MaxLinesPerSet > sum.MaxLinesPerSet[idx] {
			sum.MaxLinesPerSet[idx] = p.MaxLinesPerSet
		}
		if p.WriteWords > sum.MaxWriteWords[idx] {
			sum.MaxWriteWords[idx] = p.WriteWords
		}
		if p.MaxLinesPerSet > 4 {
			sum.SetOverflows[idx]++
		}
		if p.BankLines[0] > 16 || p.BankLines[1] > 16 {
			sum.BankOverflows[idx]++
		}
		for _, c := range p.CPS {
			sum.CPSHist.Add(c)
		}
	}
	for i := 0; i < 2; i++ {
		if count[i] > 0 {
			sum.MeanReadLines[i] = float64(totalRead[i]) / float64(count[i])
		}
	}
	return sum
}
