package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// figure is the part of a cmd/figures -json document the checks read.
type figure struct {
	Kind   string `json:"kind"`
	Curves []struct {
		Name   string `json:"name"`
		Points []struct {
			Threads    int     `json:"threads"`
			OpsPerUsec float64 `json:"ops_per_usec"`
		} `json:"points"`
	} `json:"curves"`
}

// parseFigures extracts the -json documents from a figures stdout, where
// each follows its figure's rendered table and starts on a line holding
// just "{".
func parseFigures(out []byte) ([]figure, error) {
	var figs []figure
	for off := 0; off < len(out); {
		end := bytes.IndexByte(out[off:], '\n')
		if end < 0 {
			end = len(out) - off
		}
		if string(out[off:off+end]) != "{" {
			off += end + 1
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(out[off:]))
		var f figure
		if err := dec.Decode(&f); err != nil {
			return figs, fmt.Errorf("figure %d: %w", len(figs)+1, err)
		}
		figs = append(figs, f)
		off += int(dec.InputOffset())
	}
	return figs, nil
}

// checkOutput checks one pass's stdout: w.exps figure documents holding
// w.points points, each with a finite ops_per_usec above zero. It returns
// how many of the pass's cells are missing or malformed (w.points when the
// output does not parse) and what was wrong.
func checkOutput(w workload, out []byte) (bad int, problems []string) {
	figs, err := parseFigures(out)
	if err != nil {
		return w.points, []string{err.Error()}
	}
	if len(figs) != len(w.exps) {
		problems = append(problems, fmt.Sprintf("%d figure documents, want %d", len(figs), len(w.exps)))
	}
	good := 0
	for fi, f := range figs {
		for _, c := range f.Curves {
			for _, p := range c.Points {
				v := p.OpsPerUsec
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					problems = append(problems, fmt.Sprintf("figure %d %s@%d: ops_per_usec %v", fi+1, c.Name, p.Threads, v))
					continue
				}
				good++
			}
		}
	}
	if good != w.points {
		problems = append(problems, fmt.Sprintf("%d valid points, want %d", good, w.points))
	}
	bad = w.points - min(good, w.points)
	if len(problems) > 0 && bad == 0 {
		bad = w.points // the output's shape is wrong, so none of it is trusted
	}
	return bad, problems
}

// checkReplay compares the probe's replayed points with the figures that
// cmd/figures printed and returns how many reference points the replay
// did not reproduce exactly.
func checkReplay(ref []figure, replay []figure) (bad int, problems []string) {
	for fi, f := range ref {
		for ci, c := range f.Curves {
			for pi, p := range c.Points {
				if fi >= len(replay) || ci >= len(replay[fi].Curves) || pi >= len(replay[fi].Curves[ci].Points) {
					bad++
					problems = append(problems, fmt.Sprintf("replay lacks figure %d %s@%d", fi+1, c.Name, p.Threads))
					continue
				}
				rc := replay[fi].Curves[ci]
				rp := rc.Points[pi]
				if rc.Name != c.Name || rp.Threads != p.Threads || rp.OpsPerUsec != p.OpsPerUsec {
					bad++
					problems = append(problems, fmt.Sprintf("replay of figure %d %s@%d gave %s@%d = %v, figures printed %v",
						fi+1, c.Name, p.Threads, rc.Name, rp.Threads, rp.OpsPerUsec, p.OpsPerUsec))
				}
			}
		}
	}
	return bad, problems
}
