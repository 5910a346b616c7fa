package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/sim"
)

// AttribRow is one (system, threads) cell of the abort-attribution report:
// the fold of that run's event stream (obs.AbortProfile) cross-checked
// against the simulator's per-strand counters.
type AttribRow struct {
	System    string
	Threads   int
	Ops       uint64 // atomic blocks completed (system Stats)
	Begins    uint64 // hardware transactions begun (event fold)
	Commits   uint64 // hardware commits (event fold)
	Aborts    uint64 // hardware aborts (event fold)
	Fallbacks uint64 // falls to lock/software mode (event fold)
	SWCommits uint64 // software commits (event fold)
	AbortRate float64
	// CPS is the distribution of CPS register values over this cell's
	// aborts, descending by count.
	CPS []cps.Entry
}

// AttribReport is the Table-4-style abort-attribution breakdown: per CPS
// failure reason, per TM system, per thread count.
type AttribReport struct {
	Title string
	Rows  []AttribRow
	Notes []string
}

// attribSystems lists the hardware-transaction-using systems the
// attribution experiment traces. STM-only systems never set CPS bits, so
// they are omitted.
func attribSystems() []SysBuilder { return systems("phtm", "hytm", "tle") }

// attribCell is one attribution cell's cacheable payload: the row plus
// any per-cell consistency notes (kept together so a cache hit restores
// the full report, notes included).
type attribCell struct {
	Row   AttribRow `json:"row"`
	Notes []string  `json:"notes,omitempty"`
}

// AttributionReport runs the Figure 1(a) hash-table workload (key range
// 256, 0% lookups) under each hardware-capable system at every thread
// count, and folds each run's live event stream into an abort-attribution
// row. The system's Stats supply the ops column, and the strands' begin
// counters cross-check the fold. Cells are emitted through the runner like
// every figure: one independent job per (system, threads), merged in
// submission order.
func AttributionReport(o Options) (*AttribReport, error) {
	o = o.Defaults()
	kv := kvConfig{
		keyRange:  256,
		pctLookup: 0,
		memWords:  1 << 23,
		build:     hashtableKV(1 << 17),
	}
	var curves []curve
	for _, sb := range attribSystems() {
		curves = append(curves, o.kvCurve(sb.Name, kv, sb.Build, nil))
	}
	results, err := runCells(o, o.cells("attrib", curves), func(c cell) (attribCell, error) {
		prof := obs.NewAbortProfile()
		var begins uint64
		build := c.build
		c.build = func(m *sim.Machine) built {
			m.AttachEventSink(prof)
			b := build(m)
			// kv cells carry no check of their own: this one only reads
			// the strands' begin counters for the cross-check note.
			b.check = func() error {
				for i := 0; i < c.spec.Threads; i++ {
					begins += m.Strand(i).Stats().TxBegins
				}
				return nil
			}
			return b
		}
		res, _, err := o.run(c)
		if err != nil {
			return attribCell{}, err
		}
		sys, th := c.spec.System, c.spec.Threads
		out := attribCell{Row: AttribRow{
			System:    sys,
			Threads:   th,
			Ops:       res.Stats.Ops,
			Begins:    prof.Begins,
			Commits:   prof.Commits,
			Aborts:    prof.Aborts,
			Fallbacks: prof.Fallbacks,
			SWCommits: prof.SWCommits,
			AbortRate: prof.AbortRate(),
			CPS:       prof.Hist.Entries(),
		}}
		if begins != prof.Begins {
			out.Notes = append(out.Notes,
				fmt.Sprintf("%s@%dT: strand tx_begins=%d disagrees with folded begins=%d", sys, th, begins, prof.Begins))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &AttribReport{Title: "Abort attribution (Table 4 style): HashTable keyrange=256, 0% lookups"}
	for _, res := range results {
		rep.Rows = append(rep.Rows, res.Row)
		rep.Notes = append(rep.Notes, res.Notes...)
	}
	return rep, nil
}

// systems returns the distinct system names in row order.
func (r *AttribReport) systems() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.System] {
			seen[row.System] = true
			out = append(out, row.System)
		}
	}
	return out
}

// Render writes the report: one summary table, then a per-system matrix of
// abort counts by CPS value across the thread axis.
func (r *AttribReport) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Title)
	rows := [][]string{{"system", "threads", "ops", "hw-begin", "hw-commit", "hw-abort", "abort%", "fallback", "sw-commit", "dominant-cps"}}
	for _, row := range r.Rows {
		dom := "-"
		if len(row.CPS) > 0 {
			dom = fmt.Sprintf("%s (%.0f%%)", row.CPS[0].Value, 100*row.CPS[0].Fraction)
		}
		rows = append(rows, []string{
			row.System,
			strconv.Itoa(row.Threads),
			strconv.FormatUint(row.Ops, 10),
			strconv.FormatUint(row.Begins, 10),
			strconv.FormatUint(row.Commits, 10),
			strconv.FormatUint(row.Aborts, 10),
			fmt.Sprintf("%.1f", 100*row.AbortRate),
			strconv.FormatUint(row.Fallbacks, 10),
			strconv.FormatUint(row.SWCommits, 10),
			dom,
		})
	}
	renderAligned(w, rows)
	for _, sysName := range r.systems() {
		fmt.Fprintf(w, "\n-- %s: aborts by CPS value x threads --\n", sysName)
		var cells []AttribRow
		for _, row := range r.Rows {
			if row.System == sysName {
				cells = append(cells, row)
			}
		}
		// Union of CPS values for this system, ordered by total count
		// descending (ties by ascending value) via a merged histogram.
		merged := cps.NewHistogram()
		for _, c := range cells {
			for _, e := range c.CPS {
				for i := uint64(0); i < e.Count; i++ {
					merged.Add(e.Value)
				}
			}
		}
		header := []string{"cps-value"}
		for _, c := range cells {
			header = append(header, fmt.Sprintf("%dT", c.Threads))
		}
		matrix := [][]string{header}
		for _, me := range merged.Entries() {
			line := []string{me.Value.String()}
			for _, c := range cells {
				n := uint64(0)
				for _, e := range c.CPS {
					if e.Value == me.Value {
						n = e.Count
					}
				}
				line = append(line, strconv.FormatUint(n, 10))
			}
			matrix = append(matrix, line)
		}
		if len(matrix) == 1 {
			fmt.Fprintln(w, "(no aborts recorded)")
			continue
		}
		renderAligned(w, matrix)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the report in machine-readable form: one "summary" line per
// cell followed by one "cps" line per observed CPS value.
func (r *AttribReport) CSV(w io.Writer) {
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s,%s,%d,summary,%d,%d,%d,%d,%d,%d,%.4f\n",
			r.Title, row.System, row.Threads,
			row.Ops, row.Begins, row.Commits, row.Aborts, row.Fallbacks, row.SWCommits, row.AbortRate)
		for _, e := range row.CPS {
			fmt.Fprintf(w, "%s,%s,%d,cps,%s,%d,%.4f\n",
				r.Title, row.System, row.Threads, e.Value, e.Count, e.Fraction)
		}
	}
}

// jsonAttribRow mirrors AttribRow for JSON output; CPS values render as
// their mnemonic strings ("COH", "SIZ|ST", ...).
type jsonAttribRow struct {
	System    string         `json:"system"`
	Threads   int            `json:"threads"`
	Ops       uint64         `json:"ops"`
	Begins    uint64         `json:"hw_begins"`
	Commits   uint64         `json:"hw_commits"`
	Aborts    uint64         `json:"hw_aborts"`
	Fallbacks uint64         `json:"fallbacks"`
	SWCommits uint64         `json:"sw_commits"`
	AbortRate float64        `json:"abort_rate"`
	CPS       []obs.CPSCount `json:"cps,omitempty"`
}

type jsonAttrib struct {
	Kind  string          `json:"kind"`
	Title string          `json:"title"`
	Rows  []jsonAttribRow `json:"rows"`
	Notes []string        `json:"notes,omitempty"`
}

// JSON writes the report as one indented JSON document, sharing the
// kind/title/notes envelope with Figure.JSON.
func (r *AttribReport) JSON(w io.Writer) error {
	doc := jsonAttrib{Kind: "attrib", Title: r.Title, Notes: r.Notes}
	for _, row := range r.Rows {
		jr := jsonAttribRow{
			System:    row.System,
			Threads:   row.Threads,
			Ops:       row.Ops,
			Begins:    row.Begins,
			Commits:   row.Commits,
			Aborts:    row.Aborts,
			Fallbacks: row.Fallbacks,
			SWCommits: row.SWCommits,
			AbortRate: row.AbortRate,
		}
		for _, e := range row.CPS {
			jr.CPS = append(jr.CPS, obs.CPSCount{Value: e.Value.String(), Count: e.Count, Fraction: e.Fraction})
		}
		doc.Rows = append(doc.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
