package bench

import (
	"fmt"
	"sort"

	"chime/internal/obs"
	"chime/internal/ycsb"
)

// Attribution experiment: the flight recorder's tail-latency story on
// the paper's four systems. Two sections:
//
//	attrib — contended zipfian workloads (the 50/50 update mix A and the
//	         read-only mix C) at the scale's default client count, with
//	         the flight recorder on: per-op-class mean and p99 phase
//	         shares, slowest-op exemplars, and the virtual-time timeline.
//	         The shares must explain >= 95% of measured latency (pinned
//	         by TestAttributionCoverage).
//	pin    — the zero-perturbation guarantee: points run twice from
//	         fresh builds, recorder off then on; the run fingerprints
//	         (Result + NIC + MN-CPU + frontier state) must be
//	         bit-identical. Recording observes clock deltas dmsim already
//	         computed, so it can never move a clock — this section
//	         proves it, per system.
//
// The off and on runs of a pin point do DIFFERENT host work by design,
// so a pin point must be interleaving-INDEPENDENT, not merely stable
// from run to run. Under the cohort scheduler every point is: a
// cohort's virtual time is a function of its clocks, whatever the host
// does meanwhile (a GC pause shifted by the recorder's own allocations
// included). The pins are therefore the contended points themselves:
// both attrib mixes at the scale's client count, CN cache, hotspot
// buffer and RDWC on.

// attribTopK bounds the slowest-exemplar capture per op class (the
// recorder default is 8; 4 keeps the artifact small).
const attribTopK = 4

// attribPoints returns the experiment's points: the contended 50/50
// update mix A and the read-only mix C at the scale's client count. The
// attrib section records them; the pin section runs them recorder off
// and on.
func attribPoints(sc Scale) []point {
	return []point{
		{mix: ycsb.WorkloadA, clients: sc.Clients, ops: sc.Ops, seed: 23},
		{mix: ycsb.WorkloadC, clients: sc.Clients, ops: sc.Ops, seed: 23},
	}
}

// AttributionRow is one measured point (BENCH_ATTRIB.json).
type AttributionRow struct {
	Section        string  `json:"section"`
	System         string  `json:"system"`
	Mix            string  `json:"mix"`
	Clients        int     `json:"clients"`
	Ops            int64   `json:"ops"`
	ThroughputMops float64 `json:"throughput_mops"`
	P50Us          float64 `json:"p50_us"`
	P99Us          float64 `json:"p99_us"`

	Attribution obs.AttributionReport `json:"attribution"`

	// Pin-section fields: fingerprints of the recorder-off and
	// recorder-on runs, which must match (Unperturbed).
	FingerprintOff string `json:"fingerprint_recorder_off,omitempty"`
	FingerprintOn  string `json:"fingerprint_recorder_on,omitempty"`
	Unperturbed    bool   `json:"unperturbed,omitempty"`
}

// recorded runs the point under a private observer — with a flight
// recorder attached when record is set — and returns the flight report
// (nil without one) beside the row and the run fingerprint.
func (p point) recorded(name string, sc Scale, record bool) (Result, *FlightSection, string, error) {
	sc.Obs = NewObserver(false)
	if record {
		sc.Obs.EnableFlightRecorder(obs.FlightConfig{TopK: attribTopK})
	}
	r, fp, err := p.run(name, sc)
	return r, sc.Obs.FlightReport(), fp, err
}

// runAttribution measures both sections for every system: each point
// runs from a fresh build with the recorder off, then on. The recorded
// run is the attrib row; the pair is the pin row. It returns the rows
// plus one sample timeline (the first system's contended point) for the
// committed timeline artifact.
func runAttribution(sc Scale) (AttributionRows, *obs.TimelineReport, error) {
	var attrib, pins AttributionRows
	var sample *obs.TimelineReport
	for _, name := range HeadToHeadSystems {
		for _, pt := range attribPoints(sc) {
			_, _, fpOff, err := pt.recorded(name, sc, false)
			if err != nil {
				return nil, nil, fmt.Errorf("attribution %s/%s recorder off: %w", name, pt.mix.Name, err)
			}
			r, fs, fpOn, err := pt.recorded(name, sc, true)
			if err != nil {
				return nil, nil, fmt.Errorf("attribution %s/%s recorder on: %w", name, pt.mix.Name, err)
			}
			row := AttributionRow{
				Section:        "attrib",
				System:         name,
				Mix:            pt.mix.Name,
				Clients:        r.Clients,
				Ops:            r.Ops,
				ThroughputMops: r.ThroughputMops,
				P50Us:          r.P50Us,
				P99Us:          r.P99Us,
				Attribution:    fs.Attribution,
			}
			attrib = append(attrib, row)
			row.Section, row.Attribution = "pin", obs.AttributionReport{}
			row.FingerprintOff, row.FingerprintOn, row.Unperturbed = fpOff, fpOn, fpOff == fpOn
			pins = append(pins, row)
			if sample == nil {
				sample = &fs.Timeline
			}
		}
	}
	return append(attrib, pins...), sample, nil
}

// AttributionRows is the experiment's table (chimectl also renders its
// own runs and a metrics artifact's flight section as one: a Table needs
// only Rows to print). Its text is two aligned
// blocks — mean-latency shares and p99-tail shares, one line per system,
// mix and op class — then the pin section's verdict lines and the
// table's timeline_sample, when it has one.
type AttributionRows []AttributionRow

// phaseColumns orders the share columns by overall weight so the blocks
// lead with the phases that matter; zero-everywhere phases are dropped.
func (rows AttributionRows) phaseColumns() []string {
	weight := map[string]float64{}
	for _, r := range rows {
		for _, ca := range r.Attribution.Classes {
			for ph, s := range ca.MeanShare {
				weight[ph] += s
			}
			for ph, s := range ca.TailShare {
				weight[ph] += s
			}
		}
	}
	var cols []string
	for _, ph := range obs.PhaseNames() {
		if weight[ph] > 0 {
			cols = append(cols, ph)
		}
	}
	sort.SliceStable(cols, func(i, j int) bool { return weight[cols[i]] > weight[cols[j]] })
	return cols
}

func (rows AttributionRows) grids(t *Table) []grid {
	phases := rows.phaseColumns()
	shares := func(title string) grid {
		g := grid{title: "## " + title + "\n", cols: []col{
			{"system", "%-8s"}, {"mix", "%-4s"}, {"class", "%-11s"},
			{"ops", "%8d"}, {"mean(us)", "%9.1f"}, {"p99(us)", "%9.1f"}, {"cov%", "%5.1f%%"},
		}}
		for _, ph := range phases {
			g.cols = append(g.cols, col{ph, "%11.1f%%"})
		}
		return g
	}
	mean := shares("Mean-latency attribution")
	tail := shares("p99-tail attribution (ops at and above the p99 bucket)")
	tail.title = "\n" + tail.title
	pin := grid{title: "\n## Zero-perturbation pin (recorder off vs on, fresh builds)\n", cols: []col{
		{"", "%-8s"}, {"", "%-4s"}, {"", "clients=%-3d"}, {"", "off=%s"}, {"", "on=%s"}, {"", "unperturbed=%t"},
	}}
	for _, r := range rows {
		if r.Section == "pin" {
			pin.rows = append(pin.rows, []any{r.System, r.Mix, r.Clients, r.FingerprintOff, r.FingerprintOn, r.Unperturbed})
			continue
		}
		for _, ca := range r.Attribution.Classes {
			line := func(coverage float64, share obs.PhaseShare) []any {
				cells := []any{r.System, r.Mix, ca.Class, ca.Ops, ca.MeanNs / 1e3, float64(ca.P99Ns) / 1e3, coverage * 100}
				for _, ph := range phases {
					cells = append(cells, share[ph]*100)
				}
				return cells
			}
			mean.rows = append(mean.rows, line(ca.Coverage, ca.MeanShare))
			tail.rows = append(tail.rows, line(ca.TailCoverage, ca.TailShare))
		}
	}
	gs := []grid{mean, tail}
	if len(pin.rows) > 0 {
		gs = append(gs, pin)
	}
	var tl obs.TimelineReport
	if t.Lookup("timeline_sample", &tl) && len(rows) > 0 {
		g := timelineGrid(tl)
		g.title = fmt.Sprintf("\n## Timeline sample (%s, contended mix)\n", rows[0].System) + g.title
		gs = append(gs, g)
	}
	return gs
}

// FormatTimeline renders a timeline report as an aligned table, one
// line per populated window.
func FormatTimeline(tl obs.TimelineReport) string { return timelineGrid(tl).String() }

func timelineGrid(tl obs.TimelineReport) grid {
	g := grid{
		title: fmt.Sprintf("window=%dns origin=%dns dropped=%d\n", tl.WindowNs, tl.OriginNs, tl.Dropped),
		cols: []col{{"t(us)", "%10.0f"}, {"ops", "%8d"}, {"Mops", "%8.3f"}, {"p50(us)", "%9.1f"},
			{"p99(us)", "%9.1f"}, {"nic%", "%7.1f"}, {"mncpu%", "%7.1f"}},
	}
	for _, w := range tl.Windows {
		g.rows = append(g.rows, []any{float64(w.StartNs-tl.OriginNs) / 1e3, w.Ops, w.ThroughputMops,
			float64(w.P50Ns) / 1e3, float64(w.P99Ns) / 1e3, w.NICUtilization * 100, w.MNUtilization * 100})
	}
	return g
}

// attributionTable wraps rows and an optional timeline in the
// experiment's artifact envelope.
func attributionTable(sc Scale, rows AttributionRows, timeline *obs.TimelineReport) *Table {
	t := &Table{ID: "attribution", Params: append(sizeParams(sc), Param{"top_k", attribTopK}), Rows: rows}
	if timeline != nil {
		t.Extra = []Param{{"timeline_sample", timeline}}
	}
	return t
}

func init() {
	register(Experiment{
		ID: "attribution", Title: "tail-latency attribution and timelines", Rows: AttributionRows(nil),
		Table: func(sc Scale) (*Table, error) {
			rows, sample, err := runAttribution(sc)
			return attributionTable(sc, rows, sample), err
		},
	})
}
