package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"rocktm/internal/cps"
)

// TestInvalidFlagsRejected: a non-positive -iters used to print empty
// tables and exit 0; it is now a usage error naming the flag.
func TestInvalidFlagsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means valid
	}{
		{nil, ""},
		{[]string{"-iters", "1"}, ""},
		{[]string{"-iters", "0"}, "-iters"},
		{[]string{"-iters", "-5"}, "-iters"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("cpstest", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		iters := registerFlags(fs)
		err := fs.Parse(c.args)
		if err == nil {
			err = validate(*iters)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v rejected: %v", c.args, err)
		case c.want != "" && err == nil:
			t.Errorf("%v accepted", c.args)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%v: error %q does not name %s", c.args, err, c.want)
		}
	}
}

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

// Every scenario's row reads as E1 (EXPERIMENTS.md, Section 3 / Table 1)
// records it: each aborted attempt reports the CPS values the paper names
// for the scenario and no others, and the attempts the histogram leaves
// out committed — the untaken half of the conditional traps, every store
// after the dummy-CAS warmup, every execution after the ITLB warmup.
func TestScenariosMatchTable1(t *testing.T) {
	const iters = 20
	checks := map[string]struct {
		want string // E1's claim
		ok   func(*cps.Histogram) bool
		says string // the commits the comment must report, if any
	}{
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
			ok:   func(h *cps.Histogram) bool { return h.Total() == 0 },
			says: fmt.Sprintf("%d/%d committed", iters, iters),
		},
	}
	seen := map[string]bool{}
	for _, r := range scenarios(iters) {
		seen[r.name] = true
		c, ok := checks[r.name]
		if !ok {
			continue // coherence x1 and x4: E1 records no claim
		}
		if !c.ok(r.hist) {
			t.Errorf("%s: %s, want %s", r.name, r.hist, c.want)
		}
		if !strings.Contains(r.comment, c.says) {
			t.Errorf("%s: %q does not say %q", r.name, r.comment, c.says)
		}
	}
	for name := range checks {
		if !seen[name] {
			t.Errorf("no scenario row %q", name)
		}
	}
}
