package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestRecycledMachineStartsFresh checks that a machine built from
// recycled parts starts empty: Recycle pools every strand, with its L1,
// TLBs, predictor and transaction slices, and the memory's page tables,
// and New must reset each to the state a fresh allocation has. A
// machine fills every pooled part and is recycled, and the machine that
// draws its parts must equal, field by field, one built while the pools
// were empty. The page tables travel between two memory sizes, so a
// large table serves a small memory and then a large one again, with
// the pages past the small prefix still dirty from the first machine.
func TestRecycledMachineStartsFresh(t *testing.T) {
	const small, big = 1 << 18, 1 << 20
	for _, strands := range []int{1, 4, 16} {
		for _, design := range DesignPointNames() {
			t.Run(fmt.Sprintf("%s/strands=%d", design, strands), func(t *testing.T) {
				cfg := func(words int) Config {
					c := DefaultConfig(strands)
					c.MemWords = words
					c.MaxCycles = 1 << 40
					c.CTIAbortProb, c.UCTIAbortProb, c.StoreAfterMissProb = 0, 0, 0
					c.HTM = DesignPoint(design)
					return c
				}
				drainPools()
				fresh := map[int]*Machine{small: New(cfg(small)), big: New(cfg(big))}
				defer fresh[small].Recycle()
				defer fresh[big].Recycle()
				for _, step := range []struct{ from, to int }{{big, small}, {small, big}} {
					m := recycledInto(t, cfg(step.from), cfg(step.to))
					for i, s := range m.strands {
						if d := freshDiff(reflect.ValueOf(s), reflect.ValueOf(fresh[step.to].strands[i])); d != "" {
							t.Errorf("%d → %d words: recycled strand %d%s", step.from, step.to, i, d)
						}
					}
					if d := freshDiff(reflect.ValueOf(m.mem), reflect.ValueOf(fresh[step.to].mem)); d != "" {
						t.Errorf("%d → %d words: recycled memory%s", step.from, step.to, d)
					}
					m.Recycle()
				}
			})
		}
	}
}

// drainPools empties the strand and page-table pools, so that New
// allocates every strand and table afresh.
func drainPools() {
	for strandPool.Get() != nil {
	}
	for tablesPool.Get() != nil {
	}
}

// recycledInto fills a machine of cfg0 and recycles it, then builds a
// machine of cfg that draws from what it recycled: at least one strand,
// and the page tables when they can hold cfg's memory. sync.Pool may drop
// a Put, and under -race it does so at random, so a machine that drew
// neither is recycled and the whole cycle retried, up to 64 times.
func recycledInto(t *testing.T, cfg0, cfg Config) *Machine {
	t.Helper()
	for try := 0; try < 64; try++ {
		old := New(cfg0)
		fillEveryPart(t, old)
		strands := map[*Strand]bool{}
		for _, s := range old.strands {
			strands[s] = true
		}
		tables := &old.mem.frames[0]
		holds := cap(old.mem.frames) >= cfg.MemWords/PageWords
		old.Recycle()
		m := New(cfg)
		drew := false
		for _, s := range m.strands {
			drew = drew || strands[s]
		}
		if drew && (!holds || &m.mem.frames[0] == tables) {
			return m
		}
		m.Recycle()
	}
	t.Fatal("no machine drew the recycled strands and page tables in 64 tries")
	return nil
}

// fillEveryPart drives m so that every part Recycle pools holds state a
// fresh one lacks, and checks that it does. Each strand loads from and
// executes on 96 pages near the top of memory, past the 64 entries of a
// TLB page index's first size, trains its predictor, and returns with a
// hardware transaction open over four lines of its own: filled L1 lines,
// a marked list and a store queue. A tracer is attached, and one page is
// remapped after the run.
func fillEveryPart(t *testing.T, m *Machine) {
	t.Helper()
	mem := m.Mem()
	pages := mem.Size() / PageWords
	own := mem.AllocLines(16 * 4 * WordsPerLine) // page 0
	far := mem.Alloc((pages-1)*PageWords, PageWords)
	farPage := func(p int) Addr {
		return far + Addr(pages-2-p)*PageWords + Addr(p%linesPerPage)*WordsPerLine
	}
	m.StartTrace()
	m.Run(func(s *Strand) {
		for p := 0; p < 96; p++ {
			s.Load(farPage(p))
			s.Exec(int32(pages - 1 - p))
		}
		for i := 0; i < 256; i++ {
			s.Branch(uint32(i), i%3 == 0)
		}
		line := func(k int) Addr { return own + Addr((4*s.ID()+k)*WordsPerLine) }
		for k := 0; k < 4; k++ {
			s.CAS(line(k), 0, 0) // warm the micro-DTLB and write permission
		}
		s.TxBegin()
		for k := 0; k < 4 && s.TxActive(); k++ {
			if _, ok := s.TxLoad(line(k)); ok {
				s.TxStore(line(k)+1, Word(k))
			}
		}
	})
	mem.Remap(farPage(0), 1)

	var filled, marked, queued bool
	for _, s := range m.strands {
		for _, tl := range []*tlb{&s.mmu.micro, &s.mmu.main, &s.mmu.itlb} {
			if len(tl.slotOf) <= 64 {
				t.Fatalf("strand %d: a TLB page index holds %d pages, want more than 64", s.id, len(tl.slotOf))
			}
		}
		if s.bp.history == 0 {
			t.Fatalf("strand %d: the predictor holds no history", s.id)
		}
		for _, sl := range s.l1.slots {
			filled = filled || sl.tag != -1
		}
		marked = marked || len(s.tx.marked) > 0
		queued = queued || len(s.tx.storeAddrs) > 0
	}
	if !filled || !marked || !queued || mem.pages[PageOf(farPage(0))].gen == 0 {
		t.Fatalf("filled machine: L1 line %v, marked line %v, store queue %v, remapped page %v",
			filled, marked, queued, mem.pages[PageOf(farPage(0))].gen != 0)
	}
}

// freshDiff describes the first field at which got, a part of a machine
// built from recycled parts, differs from want, the same part freshly
// allocated, as a path below the part and both values, or returns "".
// Pointers are followed, except a strand's back pointer to its machine;
// slices compare by length and elements, so a nil slice equals an empty
// one; funcs must both be nil. A TLB's page index keeps its length when it
// is recycled (tlb.reset), so it need only map no page.
func freshDiff(got, want reflect.Value) string {
	differ := func(g, w any) string { return fmt.Sprintf(" is %v, fresh %v", g, w) }
	switch got.Kind() {
	case reflect.Pointer, reflect.Interface:
		switch {
		case got.IsNil() != want.IsNil():
			return differ(got.IsNil(), want.IsNil()) + " (nil)"
		case got.IsNil(), got.Type() == reflect.TypeOf((*Machine)(nil)):
			return ""
		case got.Elem().Type() != want.Elem().Type():
			return differ(got.Elem().Type(), want.Elem().Type())
		}
		return freshDiff(got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if name == "slotOf" {
				for p, slot := range got.Field(i).Seq2() {
					if slot.Int() != 0 {
						return fmt.Sprintf(".slotOf[%d] maps the page to slot %d", p.Int(), slot.Int()-1)
					}
				}
				continue
			}
			if d := freshDiff(got.Field(i), want.Field(i)); d != "" {
				return "." + name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return differ(got.Len(), want.Len()) + " long"
		}
		if got.Kind() == reflect.Slice && got.Type().Elem().Kind() == reflect.Uint8 &&
			bytes.Equal(got.Bytes(), want.Bytes()) {
			return "" // the predictor table, without a call per counter
		}
		for i := 0; i < got.Len(); i++ {
			if d := freshDiff(got.Index(i), want.Index(i)); d != "" {
				return fmt.Sprintf("[%d]", i) + d
			}
		}
	case reflect.Func:
		if !got.IsNil() || !want.IsNil() {
			return differ(got.IsNil(), want.IsNil()) + " (nil)"
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return differ(got.Bool(), want.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			return differ(got.Int(), want.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if got.Uint() != want.Uint() {
			return differ(got.Uint(), want.Uint())
		}
	case reflect.Float64:
		if got.Float() != want.Float() {
			return differ(got.Float(), want.Float())
		}
	default:
		return " has a kind freshDiff does not compare: " + got.Kind().String()
	}
	return ""
}
