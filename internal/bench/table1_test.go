package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// only accepts a non-empty histogram whose every value is one of want.
func only(want ...cps.Bits) func(*cps.Histogram) bool {
	return func(h *cps.Histogram) bool {
		for _, e := range h.Entries() {
			if !slices.Contains(want, e.Value) {
				return false
			}
		}
		return h.Total() > 0
	}
}

// empty accepts a histogram with no aborts: every attempt committed.
func empty(h *cps.Histogram) bool { return h.Total() == 0 }

// table1Check is one row's expectation: the claim, a predicate over the
// row's histogram, and the commits its comment must report, if any.
type table1Check struct {
	want string
	ok   func(*cps.Histogram) bool
	says string
}

// table1Checks is every row as E1 (EXPERIMENTS.md, Section 3 / Table 1)
// records it under Rock's design, at iters attempts per scenario.
func table1Checks(iters int) map[string]table1Check {
	return map[string]table1Check{
		"save-restore":  {want: "only INST", ok: only(cps.INST)},
		"divide":        {want: "only FP", ok: only(cps.FP)},
		"cond-trap":     {want: "only TCC", ok: only(cps.TCC), says: fmt.Sprintf("%d untaken traps committed", iters/2)},
		"dtlb-load":     {want: "only LD|PREC", ok: only(cps.LD | cps.PREC)},
		"dtlb-store":    {want: "only ST", ok: only(cps.ST)},
		"itlb":          {want: "only PREC", ok: only(cps.PREC), says: fmt.Sprintf("%d/%d commit after ITLB warmup", iters, iters)},
		"exogenous":     {want: "only FP and EXOG", ok: only(cps.FP, cps.EXOG)},
		"eviction":      {want: "only LD and SIZ", ok: only(cps.LD, cps.SIZ)},
		"cache-set":     {want: "only LD", ok: only(cps.LD)},
		"overflow-cold": {want: "only ST", ok: only(cps.ST)},
		"overflow-warm": {want: "only ST|SIZ", ok: only(cps.ST | cps.SIZ)},
		"idle-loop":     {want: "only COH", ok: only(cps.COH)},
		"coherence x16": {want: "mostly COH", ok: func(h *cps.Histogram) bool {
			v, frac := h.Dominant()
			return v == cps.COH && frac >= 0.9
		}},
		"dtlb-store+warm": {
			want: "empty",
			ok:   empty,
			says: fmt.Sprintf("%d/%d committed", iters, iters),
		},
	}
}

// designDepartures are the rows in which a design point departs from
// Rock's (docs/HTM-DESIGN.md, "CPS bits per design point"); every other
// row reads as under Rock, and idle-loop's L2 back-invalidation COH is
// the same under every design.
var designDepartures = map[string]map[string]table1Check{
	// Eager version management writes in place and logs the old value,
	// so no store-queue bank overflows: all 33 stores commit.
	"eagervm": {"overflow-warm": {want: "empty (no store-queue overflow under eager VM)", ok: empty}},
	// Sticky lines keep a displaced marked line, so the fifth line in one
	// 4-way set no longer aborts.
	"sticky": {"cache-set": {want: "empty (a sticky line survives set eviction)", ok: empty}},
}

// Every scenario's row reads as E1 records it, at every HTM design point:
// each aborted attempt reports the CPS values the paper names for the
// scenario and no others, and the attempts the histogram leaves out
// committed — the untaken half of the conditional traps, every store
// after the dummy-CAS warmup, every execution after the ITLB warmup.
// Rock's rows are the table1 catalogue row's.
func TestScenariosMatchTable1(t *testing.T) {
	const iters = 20
	for name := range designDepartures {
		if !slices.Contains(sim.DesignPointNames(), name) {
			t.Errorf("departures listed for unknown design point %q", name)
		}
	}
	for _, design := range sim.DesignPointNames() {
		checks := table1Checks(iters)
		for row, c := range designDepartures[design] {
			checks[row] = c
		}
		var rows []CPSRow
		if design == "rock" {
			tab, err := Table1(Options{OpsPerThread: iters})
			if err != nil {
				t.Fatal(err)
			}
			rows = tab.Rows
		} else {
			rows = cpsScenarios(sim.DesignPoint(design), iters, 1)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			seen[r.Name] = true
			c, ok := checks[r.Name]
			if !ok {
				continue // coherence x1 and x4: E1 records no claim
			}
			if !c.ok(r.Hist) {
				t.Errorf("%s %s: %s, want %s", design, r.Name, r.Hist, c.want)
			}
			if !strings.Contains(r.Comment, c.says) {
				t.Errorf("%s %s: %q does not say %q", design, r.Name, r.Comment, c.says)
			}
		}
		for name := range checks {
			if !seen[name] {
				t.Errorf("%s: no scenario row %q", design, name)
			}
		}
	}
}
