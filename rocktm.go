// Package rocktm is a faithful software reproduction of the system studied
// in Dice, Lev, Moir and Nussbaum, "Early Experience with a Commercial
// Hardware Transactional Memory Implementation" (ASPLOS 2009): Sun's Rock
// processor's best-effort hardware transactional memory, and the software
// stack the paper builds over it — the TL2 and SkySTM software TMs, the
// HyTM and PhTM hybrids, transactional lock elision, and the benchmarks
// from a shared counter up to a parallel Minimum Spanning Forest.
//
// Because no shipping hardware exposes Rock's chkpt/commit/CPS interface,
// the substrate is a deterministic discrete-event multiprocessor simulator
// (internal/sim): strands with private L1 caches, TLBs and branch
// predictors over a shared L2, scheduled in virtual-time order, with every
// abort cause of the paper's Table 1 produced by the corresponding
// microarchitectural mechanism. Throughput is measured in simulated time,
// so scaling experiments are meaningful on any host.
//
// This package is the public facade: it re-exports the pieces a user needs
// to build and run transactional programs on the simulated machine. The
// deeper layers live in internal/ and are documented there.
//
// A minimal program:
//
//	m := rocktm.NewMachine(rocktm.DefaultConfig(4))
//	counter := m.Mem().AllocLines(8)
//	sys := rocktm.NewPhTM(m, rocktm.NewSkySTM(m))
//	m.Run(func(s *rocktm.Strand) {
//		for i := 0; i < 1000; i++ {
//			sys.Atomic(s, func(c rocktm.Ctx) {
//				c.Store(counter, c.Load(counter)+1)
//			})
//		}
//	})
package rocktm

import (
	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/graphgen"
	"rocktm/internal/hashtable"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/msf"
	"rocktm/internal/phtm"
	"rocktm/internal/rbtree"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/stm/tl2"
	"rocktm/internal/tle"
)

// ---- Simulated machine ----

// Machine is the simulated Rock-like chip multiprocessor.
type Machine = sim.Machine

// Config describes a machine; see DefaultConfig.
type Config = sim.Config

// Strand is one simulated hardware strand (a software thread in the
// paper's SSE configuration).
type Strand = sim.Strand

// Memory is the shared simulated memory.
type Memory = sim.Memory

// Addr is a word address in simulated memory; Word is its 64-bit content.
type (
	Addr = sim.Addr
	Word = sim.Word
)

// Execution modes (Section 2 of the paper).
const (
	SSE = sim.SSE
	SE  = sim.SE
)

// DefaultConfig returns a Rock-flavoured machine configuration for n
// strands.
func DefaultConfig(n int) Config { return sim.DefaultConfig(n) }

// NewMachine builds a machine. Each strand keeps one coroutine from its
// first Run until Machine.Recycle stops it; a machine that is never
// recycled releases its coroutines when it is collected.
func NewMachine(cfg Config) *Machine { return sim.New(cfg) }

// ---- Raw best-effort HTM (the rock package) ----

// Txn is the handle for transactional instructions inside a raw hardware
// transaction attempt.
type Txn = rock.Txn

// CPS is the Checkpoint Status register value describing why a hardware
// transaction aborted.
type CPS = cps.Bits

// CPS register bits (Table 1 of the paper).
const (
	EXOG  = cps.EXOG
	COH   = cps.COH
	TCC   = cps.TCC
	INST  = cps.INST
	PREC  = cps.PREC
	ASYNC = cps.ASYNC
	SIZ   = cps.SIZ
	LD    = cps.LD
	ST    = cps.ST
	CTI   = cps.CTI
	FP    = cps.FP
	UCTI  = cps.UCTI
)

// TryHTM executes body as a single best-effort hardware transaction
// attempt, returning whether it committed and, if not, the CPS contents.
func TryHTM(s *Strand, body func(Txn)) (bool, CPS) { return rock.Try(s, body) }

// WarmTLB performs the dummy-CAS TLB warmup idiom over [a, a+words).
func WarmTLB(s *Strand, a Addr, words int) { rock.WarmTLB(s, a, words) }

// ---- The TM programming interface ----

// Ctx is the access interface code sees inside an atomic block; System
// executes atomic blocks (PhTM, HyTM, an STM, TLE, a lock, ...).
type (
	Ctx    = core.Ctx
	System = core.System
	Stats  = core.Stats
)

// PC derives a stable branch-site identifier for Ctx.Branch.
func PC(site string) uint32 { return core.PC(site) }

// ---- Synchronization systems ----

// NewSkySTM builds the SkySTM-flavoured software TM (semi-visible readers;
// HyTM-capable).
func NewSkySTM(m *Machine) *sky.System { return sky.New(m) }

// NewTL2 builds the TL2 software TM (global version clock, invisible
// readers).
func NewTL2(m *Machine) *tl2.System { return tl2.New(m) }

// NewPhTM builds Phased TM over the given STM back end (NewSkySTM or
// NewTL2).
func NewPhTM(m *Machine, back System) *phtm.System {
	return phtm.New(m, back, phtm.DefaultConfig())
}

// NewHyTM builds Hybrid TM over SkySTM.
func NewHyTM(m *Machine) *hytm.System {
	return hytm.New(sky.New(m), hytm.DefaultConfig())
}

// NewOneLock builds the single-global-lock baseline system.
func NewOneLock(m *Machine) *locktm.OneLock { return locktm.NewOneLock(m) }

// NewSeq builds the unprotected sequential baseline.
func NewSeq() *locktm.Seq { return locktm.NewSeq() }

// NewTLE builds transactional lock elision over a fresh spinlock with the
// paper's CPS-guided retry policy (UCTI counts half a failure, unsupported
// instructions give up immediately).
func NewTLE(m *Machine) *tle.System {
	return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
}

// ---- Transactional data structures ----

// HashTable is the Section 5 transactional chained hash table.
type HashTable = hashtable.Table

// NewHashTable builds a table with nBuckets buckets (a power of two; the
// paper uses 2^17) and the given node capacity.
func NewHashTable(m *Machine, nBuckets, capacity int) *HashTable {
	return hashtable.New(m, nBuckets, capacity)
}

// RBTree is the Section 6 iterative red-black tree.
type RBTree = rbtree.Tree

// NewRBTree builds a tree with the given node capacity.
func NewRBTree(m *Machine, capacity int) *RBTree { return rbtree.New(m, capacity) }

// ---- Minimum Spanning Forest (Section 8) ----

// MSFRunner executes the Kang–Bader parallel MSF algorithm.
type MSFRunner = msf.Runner

// MSF variants: the original algorithm extracts the heap minimum inside
// its main transaction; the optimized variant examines it and extracts
// non-transactionally when the heap leaves the public space anyway.
const (
	MSFOrig = msf.Orig
	MSFOpt  = msf.Opt
)

// Graph is a weighted undirected sparse graph in simulated memory.
type Graph = graphgen.Graph

// NewRoadmap synthesizes a road-network-like graph (a width×height grid
// plus a fraction of random shortcut edges) directly into m's memory — the
// stand-in for the paper's DIMACS Eastern-USA roadmap.
func NewRoadmap(m *Machine, width, height int, extra float64, seed uint64) *Graph {
	return graphgen.Roadmap(m, width, height, extra, seed)
}

// NewMSFRunner lays out the Kang–Bader algorithm's state for graph g under
// system sys.
func NewMSFRunner(m *Machine, g *Graph, sys System, variant msf.Variant) *MSFRunner {
	return msf.NewRunner(m, g, sys, variant)
}
