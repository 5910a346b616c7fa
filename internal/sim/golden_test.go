package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
)

// This file pins the simulator's virtual-time behaviour bit-for-bit.
//
// The hot-path work in PR 3 (O(1) TLB indexing, heap-based baton
// scheduling, mask-indexed caches, store-queue indexes) is constrained to
// be *behaviour-identical*: same virtual-time decisions, same RNG
// consumption, same figure bytes. These digests were recorded from the
// pre-optimization simulator (linear-scan TLBs, O(strands) scheduler
// scans, %-indexed caches) and must never change. If a future PR changes
// them on purpose (a modelling change, not an optimization), regenerate
// with:
//
//	SIM_GOLDEN_REGEN=1 go test ./internal/sim -run TestGoldenCycleIdentity
//
// and paste the printed table — after convincing yourself the behaviour
// change is intended.

// goldenCase is one machine configuration of the identity matrix.
type goldenCase struct {
	name     string
	strands  int
	mode     Mode
	faults   string // FaultProfile name; "" injects nothing
	maxClock int64
	digest   string
}

// goldenMatrix spans the scheduler (1/4/16 strands), the store-queue
// geometry (SSE vs SE) and asynchronous-interrupt delivery (off, or on
// under the "interrupts" fault profile, the only ASYNC source).
var goldenMatrix = []goldenCase{
	{name: "s1-sse", strands: 1, mode: SSE, maxClock: 167548, digest: "26be8038b5076a34a0134be68d1254fa"},
	{name: "s1-sse-interrupts", strands: 1, mode: SSE, faults: "interrupts", maxClock: 166003, digest: "e70ad918e2fc7dcce7d880cf43b03e72"},
	{name: "s1-se", strands: 1, mode: SE, maxClock: 166495, digest: "2edeb7f10ada8c2723a8989438ddc3ce"},
	{name: "s1-se-interrupts", strands: 1, mode: SE, faults: "interrupts", maxClock: 165314, digest: "b78f1dc1e0ae6b13931c943f2619e83e"},
	{name: "s4-sse", strands: 4, mode: SSE, maxClock: 155853, digest: "17f37179bc98cc879341c8f9894c4e25"},
	{name: "s4-sse-interrupts", strands: 4, mode: SSE, faults: "interrupts", maxClock: 152265, digest: "b920d02f287f159dac2a44264f8df4e7"},
	{name: "s4-se", strands: 4, mode: SE, maxClock: 154121, digest: "4f1eeafa7c1d2dafae7dbc4032a9d733"},
	{name: "s4-se-interrupts", strands: 4, mode: SE, faults: "interrupts", maxClock: 148170, digest: "56ed2e018d7514834719e6dcfc41f3c1"},
	{name: "s16-sse", strands: 16, mode: SSE, maxClock: 152466, digest: "e13af8f5eee70885b754205053dcb407"},
	{name: "s16-sse-interrupts", strands: 16, mode: SSE, faults: "interrupts", maxClock: 146130, digest: "94b60d25a60e2de2569203ff5f656b34"},
	{name: "s16-se", strands: 16, mode: SE, maxClock: 152844, digest: "3028813dba357b4d7aea55104c32e827"},
	{name: "s16-se-interrupts", strands: 16, mode: SE, faults: "interrupts", maxClock: 147524, digest: "85a72a6237ec7d0ab2a0bac87d957450"},
}

const goldenArenaPages = 700 // > the main DTLB's 512 entries: forces its capacity evictions

// goldenConfig builds the machine configuration for one matrix case.
func goldenConfig(c goldenCase) Config {
	cfg := DefaultConfig(c.strands)
	cfg.MemWords = 1 << 20 // 1024 pages: arena + shared + code fit
	cfg.Mode = c.mode
	if c.faults != "" {
		cfg.Faults = FaultProfile(c.faults)
	}
	cfg.MaxCycles = 1 << 40
	return cfg
}

// goldenRun executes the identity workload on a fresh machine and folds
// everything observable — per-strand clocks, all event counters, the
// post-run RNG position (pinning exactly how much randomness each strand
// consumed), and a stride over simulated memory — into one digest.
func goldenRun(c goldenCase) (maxClock int64, digest string) {
	cfg := goldenConfig(c)
	m := New(cfg)
	mem := m.Mem()
	arena := mem.Alloc(goldenArenaPages*PageWords, PageWords)
	shared := mem.AllocLines(64 * WordsPerLine)
	code := mem.Alloc(PageWords, PageWords)
	codePage := PageOf(code)

	m.Run(func(s *Strand) {
		goldenBody(s, mem, arena, shared, codePage)
	})

	return m.MaxClock(), goldenFold(m, cfg)
}

// goldenBody is the identity workload for one strand — every simulated
// operation, OS event and RNG-draw pattern the matrix pins.
func goldenBody(s *Strand, mem *Memory, arena, shared Addr, codePage int32) {
	id := s.ID()
	for i := 0; i < 300; i++ {
		switch i % 10 {
		case 0: // main-DTLB churn: strided loads over more pages than it holds
			for k := 0; k < 6; k++ {
				pg := (i*37 + k*113 + id*59) % goldenArenaPages
				s.Load(arena + Addr(pg*PageWords) + Addr((i*7+k)%PageWords))
			}
		case 1: // shared-line coherence traffic + predictor training
			a := shared + Addr(((i*5+id)%64)*WordsPerLine)
			s.Store(a, Word(i*3+id))
			s.CAS(a, 0, Word(i))
			s.Add(a, 1)
			s.Branch(uint32(1000+i%17), (i+id)%3 == 0)
		case 2: // read-write transaction with store-queue forwarding
			s.TxBegin()
			ok := true
			for k := 0; k < 5 && ok; k++ {
				a := shared + Addr(((i+k*3+id)%64)*WordsPerLine)
				var v Word
				if v, ok = s.TxLoad(a); !ok {
					break
				}
				if ok = s.TxStore(a, v+1); !ok {
					break
				}
				_, ok = s.TxLoad(a) // must forward from the store queue
			}
			if ok {
				s.TxCommit()
			}
		case 3: // wide write set: fits SSE banks, overflows SE banks
			s.TxBegin()
			ok := true
			for k := 0; k < 20 && ok; k++ {
				ok = s.TxStore(shared+Addr(k*WordsPerLine), Word(k))
			}
			if ok {
				s.TxCommit()
			}
		case 4: // long read set: deferred-queue pressure, UCTI branches
			s.TxBegin()
			ok := true
			for k := 0; k < 12 && ok; k++ {
				pg := (i*11 + k*211 + id*31) % goldenArenaPages
				_, ok = s.TxLoad(arena + Addr(pg*PageWords) + Addr(k%PageWords))
			}
			if ok {
				ok = s.TxBranch(uint32(2000+i%13), i%2 == 0, true)
			}
			if ok {
				s.TxCommit()
			}
		case 5: // unsupported-instruction aborts
			s.TxBegin()
			if s.TxTrap(i%29 == 0) {
				if s.TxExec(codePage) {
					switch i % 3 {
					case 0:
						s.TxSaveRestore()
					case 1:
						s.TxDiv()
					default:
						s.TxStackWrite()
						s.TxAbortTrap()
					}
				}
			}
		case 6: // OS events: remap, context-switch TLB flush, code fetch
			if id == 0 && i%60 == 6 {
				mem.Remap(arena, 40*PageWords)
			}
			if (i+id)%90 == 16 {
				s.FlushTLBs()
			}
			s.Exec(codePage)
			s.Load(arena + Addr((i%goldenArenaPages)*PageWords))
		case 7: // transactional touch of possibly-remapped pages (LD|PREC, ST)
			s.TxBegin()
			pg := (i*3 + id) % 40
			if _, ok := s.TxLoad(arena + Addr(pg*PageWords)); ok {
				if s.TxStore(arena+Addr(pg*PageWords), Word(i)) {
					s.TxCommit()
				}
			}
		case 8: // pure compute + data-dependent branches
			s.Advance(int64(10 + i%7))
			s.Branch(uint32(i%23), s.Rand()%4 != 0)
		default: // strand-RNG-driven mix
			if s.RandIntn(2) == 0 {
				s.Load(shared + Addr(s.RandIntn(64)*WordsPerLine))
			} else {
				s.Store(shared+Addr(s.RandIntn(64)*WordsPerLine), s.Rand())
			}
		}
	}
}

// goldenFold folds everything observable about a finished run — per-strand
// clocks, all event counters, the post-run RNG position (pinning exactly
// how much randomness each strand consumed), and a stride over simulated
// memory — into one digest.
func goldenFold(m *Machine, cfg Config) string {
	mem := m.Mem()
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(uint64(m.MaxClock()))
	for i := 0; i < cfg.Strands; i++ {
		s := m.Strand(i)
		w64(uint64(s.Clock()))
		st := s.Stats()
		for _, v := range []uint64{
			st.Loads, st.Stores, st.CASes, st.L1Misses, st.L2Misses,
			st.Mispredicts, st.TLBWalks, st.PageFaults,
			st.TxBegins, st.TxCommits, st.TxAborts,
		} {
			w64(v)
		}
		w64(s.Rand()) // post-run RNG position: pins randomness consumption exactly
	}
	for a := Addr(0); int(a) < mem.Size(); a += 97 {
		w64(mem.Peek(a))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestGoldenCycleIdentity locks the simulator to its pre-optimization
// virtual-time behaviour across the full matrix. Any optimization that
// changes a single cycle, RNG draw, eviction choice or scheduling
// decision fails here.
func TestGoldenCycleIdentity(t *testing.T) {
	regen := os.Getenv("SIM_GOLDEN_REGEN") != ""
	for _, c := range goldenMatrix {
		maxClock, digest := goldenRun(c)
		if regen {
			fmt.Printf("\t{name: %q, strands: %d, mode: %v, faults: %q, maxClock: %d, digest: %q},\n",
				c.name, c.strands, c.mode, c.faults, maxClock, digest)
			continue
		}
		if maxClock != c.maxClock || digest != c.digest {
			t.Errorf("%s: got (maxClock=%d, digest=%s), pinned (maxClock=%d, digest=%s)",
				c.name, maxClock, digest, c.maxClock, c.digest)
		}
	}
	if regen {
		t.Fatal("SIM_GOLDEN_REGEN set: digests printed above; paste into goldenMatrix and unset")
	}
}

// TestGoldenRunIsSelfDeterministic guards the golden workload itself: two
// fresh machines with the same configuration must produce identical
// digests, otherwise the matrix above would be meaningless.
func TestGoldenRunIsSelfDeterministic(t *testing.T) {
	c := goldenCase{name: "det", strands: 4, mode: SSE, faults: "interrupts"}
	mc1, d1 := goldenRun(c)
	mc2, d2 := goldenRun(c)
	if mc1 != mc2 || d1 != d2 {
		t.Fatalf("same config diverged: (%d,%s) vs (%d,%s)", mc1, d1, mc2, d2)
	}
}
