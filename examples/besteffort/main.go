// Besteffort demonstrates programming Rock's HTM directly, the way
// Section 3 and 4 of the paper do: raw chkpt/commit attempts, reading the
// CPS register to decide how to react — retry on UCTI (the reported reason
// may be misspeculation), warm the TLB with a dummy CAS on a persistent
// ST, back off on COH, and give up into a fallback on INST/FP.
package main

import (
	"fmt"
	"maps"
	"slices"

	"rocktm"
)

func main() {
	m := rocktm.NewMachine(rocktm.DefaultConfig(2))
	mem := m.Mem()

	// Two bank accounts on separate cache lines, plus a page we will
	// deliberately un-map to provoke ST failures.
	a := mem.AllocLines(8)
	b := mem.AllocLines(8)
	cold := mem.Alloc(1024, 1024) // page-aligned
	mem.Poke(a, 1000)
	mem.Poke(b, 1000)
	mem.Remap(cold, 1024) // drop its TLB mappings and write permission

	hist := map[string]int{}
	m.Run(func(s *rocktm.Strand) {
		if s.ID() != 0 {
			// A second strand creating light conflicting traffic.
			for i := 0; i < 3000; i++ {
				s.Load(a)
				if i%64 == 0 {
					s.CAS(a, 0, 0)
				}
			}
			return
		}
		transfers := 0
		for transfers < 1000 {
			committed, cps := rocktm.TryHTM(s, func(t rocktm.Txn) {
				va := t.Load(a)
				vb := t.Load(b)
				t.Store(a, va-1)
				t.Store(b, vb+1)
				if transfers == 500 {
					// Halfway through, also touch the cold page once.
					t.Store(cold, 42)
				}
			})
			if committed {
				transfers++
				continue
			}
			hist[cps.String()]++
			switch {
			case cps.Has(rocktm.UCTI):
				continue // misleading feedback possible: just retry
			case cps == rocktm.ST:
				// Persistent store-TLB failure: warm with a dummy CAS.
				rocktm.WarmTLB(s, cold, 1024)
			case cps.Has(rocktm.COH):
				s.Advance(64 + int64(s.Rand()%256)) // back off
			case cps.Any(rocktm.INST | rocktm.FP):
				panic("unsupported instruction in this transaction?")
			}
		}
	})

	fmt.Printf("final balances: a=%d b=%d (sum %d, expected 2000)\n",
		m.Mem().Peek(a), m.Mem().Peek(b), m.Mem().Peek(a)+m.Mem().Peek(b))
	fmt.Println("abort reasons observed while retrying:")
	for _, k := range slices.Sorted(maps.Keys(hist)) {
		fmt.Printf("  %-10s %d\n", k, hist[k])
	}
}
