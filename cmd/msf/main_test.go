package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"rocktm/internal/sim"
)

// TestInvalidFlagsRejected: out-of-range flags are usage errors naming the
// flag. A thread count outside [1,64] and -dim 0 used to panic inside the
// simulator, a negative -dim validated an empty graph and an unknown -mode
// silently ran SSE. A zero -extra and -seed are honoured. An unknown
// -variant, and seq at more than one thread, used to fail only after the
// graph was built and printed. The command runs one variant: the sweep
// over all of them is `figures -exp fig4`, so -variant all is an unknown
// variant and -parallel an unknown flag. A synthetic grid too large for a
// machine's memory was generated in host memory and then panicked in
// sim.New; a -dimacs graph skips that check.
func TestInvalidFlagsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means valid
		mode sim.Mode
	}{
		{nil, "", sim.SSE},
		{[]string{"-threads", "1", "-dim", "1", "-extra", "0"}, "", sim.SSE},
		{[]string{"-threads", "64", "-mode", "se"}, "", sim.SE},
		{[]string{"-threads", "0"}, "-threads", 0},
		{[]string{"-threads", "65"}, "-threads", 0},
		{[]string{"-dim", "0"}, "-dim", 0},
		{[]string{"-dim", "-3"}, "-dim", 0},
		{[]string{"-extra", "-0.5"}, "-extra", 0},
		{[]string{"-extra", "NaN"}, "-extra", 0},
		{[]string{"-mode", "sx"}, "-mode", 0},
		{[]string{"-parallel", "0"}, "-parallel", 0},
		{[]string{"-seed", "0"}, "", sim.SSE},
		{[]string{"-variant", "all"}, "-variant", 0},
		{[]string{"-variant", "bogus", "-dim", "8"}, "-variant", 0},
		{[]string{"-variant", "seq", "-threads", "2"}, "-threads 1", 0},
		{[]string{"-variant", "seq", "-threads", "1"}, "", sim.SSE},
		{[]string{"-variant", "orig-sky"}, "", sim.SSE},
		{[]string{"-dim", "8192"}, "-dim 8192", 0},
		{[]string{"-dim", "100000", "-variant", "opt-lock"}, "-dim", 0},
		{[]string{"-extra", "1e9"}, "-extra 1e+09", 0},
		{[]string{"-extra", "+Inf"}, "-extra", 0},
		{[]string{"-dim", "8192", "-dimacs", "g.gr"}, "", sim.SSE},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("msf", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := registerFlags(fs)
		var mode sim.Mode
		err := fs.Parse(c.args)
		if err == nil {
			mode, err = validate(fl)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v rejected: %v", c.args, err)
		case c.want == "" && mode != c.mode:
			t.Errorf("%v: mode %v, want %v", c.args, mode, c.mode)
		case c.want != "" && err == nil:
			t.Errorf("%v accepted", c.args)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%v: error %q does not name %s", c.args, err, c.want)
		}
	}
}
