package main

import (
	"flag"
	"io"
	"strings"
	"testing"
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
