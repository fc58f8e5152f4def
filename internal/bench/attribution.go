package bench

import (
	"fmt"
	"sort"

	"chime/internal/dmsim"
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
//	pin    — the zero-perturbation guarantee: deterministic points run
//	         twice from fresh builds, recorder off then on, per
//	         scheduler; the run fingerprints (Result + NIC + MN-CPU +
//	         frontier state) must be bit-identical. Recording observes
//	         clock deltas dmsim already computed, so it can never move a
//	         clock — this section proves it, per system and scheduler.
//
// The pin section reuses the offload experiment's determinism recipe —
// single-threaded bulk load, and for multi-client points a cold CN
// cache plus no RDWC — but it needs one notch more than "double runs
// reproduce": the off and on runs do DIFFERENT host work by design, so
// a pin point must be interleaving-INDEPENDENT, not merely stable.
// Gate mode fails that bar with concurrent clients: every client's
// verbs funnel through the single NIC shard, whose queueing recurrence
// resolves same-window arrivals in host lock-acquisition order, so a
// GC pause shifted by the recorder's own allocations can legally
// reorder arrivals and move virtual time. Gate pins therefore run one
// client (a fully sequential virtual trajectory); the event loop keeps
// the multi-client point, because its lane-private NIC shards decouple
// the clients' virtual clocks no matter how the host schedules them.
// The attrib section has no such restriction — contended writes are
// exactly the regime whose tail is worth attributing — so it reports
// no fingerprints.

// attribPinMix is the pin section's read-only workload: uniform point
// reads commute, so double runs are bit-identical.
var attribPinMix = ycsb.Mix{Name: "Cu", ReadPct: 1.0, Dist: ycsb.DistUniform}

// attribTopK bounds the slowest-exemplar capture per op class (the
// recorder default is 8; 4 keeps the artifact small).
const attribTopK = 4

// pinPoints returns the pin section's zero-perturbation double-run
// points for one scheduler: one read-only cold point and one
// write-bearing single-client point. The cold point is multi-client
// only under the event loop, whose lane-private NIC shards keep
// concurrent clients' virtual clocks decoupled from host scheduling;
// gate mode shares one NIC shard across the cohort and resolves
// same-window arrivals in host lock order, so its cold pin runs a single
// client (see the package comment for the full argument).
func pinPoints(sched dmsim.SchedulerKind, sc Scale) []point {
	coldClients := 1
	if sched == dmsim.SchedulerEventLoop {
		coldClients = 4
	}
	return []point{
		{sched: sched, mix: attribPinMix, cold: true, clients: coldClients, ops: sc.Ops / 2, seed: 23},
		{sched: sched, mix: ycsb.WorkloadA, clients: 1, ops: sc.Ops / 4, seed: 23},
	}
}

// AttributionRow is one measured point (BENCH_ATTRIB.json).
type AttributionRow struct {
	Section        string  `json:"section"`
	Scheduler      string  `json:"scheduler"`
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

// runAttribution measures both sections for every system. It returns
// the rows plus one sample timeline (the first system's contended
// point) for the committed timeline artifact.
func runAttribution(sc Scale) (AttributionRows, *obs.TimelineReport, error) {
	var rows AttributionRows
	var sample *obs.TimelineReport
	row := func(section string, pt point, name string, r Result, fs *FlightSection) AttributionRow {
		return AttributionRow{
			Section:        section,
			Scheduler:      SchedulerName(pt.sched),
			System:         name,
			Mix:            pt.mix.Name,
			Clients:        r.Clients,
			Ops:            r.Ops,
			ThroughputMops: r.ThroughputMops,
			P50Us:          r.P50Us,
			P99Us:          r.P99Us,
			Attribution:    fs.Attribution,
		}
	}

	// attrib: contended zipfian points, recorder on, first scheduler.
	for _, name := range HeadToHeadSystems {
		for _, mix := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadC} {
			pt := point{sched: bothSchedulers[0], mix: mix, clients: sc.Clients, ops: sc.Ops, seed: 23}
			r, fs, _, err := pt.recorded(name, sc, true)
			if err != nil {
				return nil, nil, fmt.Errorf("attribution %s/%s: %w", name, mix.Name, err)
			}
			rows = append(rows, row("attrib", pt, name, r, fs))
			if sample == nil {
				sample = &fs.Timeline
			}
		}
	}

	// pin: zero-perturbation double runs per scheduler, recorder off then
	// on, from fresh builds.
	for _, sched := range bothSchedulers {
		for _, name := range HeadToHeadSystems {
			for _, pt := range pinPoints(sched, sc) {
				rOff, _, fpOff, err := pt.recorded(name, sc, false)
				if err != nil {
					return nil, nil, fmt.Errorf("attribution pin %s/%s/%s off: %w", SchedulerName(sched), name, pt.mix.Name, err)
				}
				_, fs, fpOn, err := pt.recorded(name, sc, true)
				if err != nil {
					return nil, nil, fmt.Errorf("attribution pin %s/%s/%s on: %w", SchedulerName(sched), name, pt.mix.Name, err)
				}
				pin := row("pin", pt, name, rOff, fs)
				pin.FingerprintOff, pin.FingerprintOn, pin.Unperturbed = fpOff, fpOn, fpOff == fpOn
				rows = append(rows, pin)
			}
		}
	}
	return rows, sample, nil
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
			{"sched", "%-6s"}, {"system", "%-8s"}, {"mix", "%-4s"}, {"class", "%-11s"},
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
		{"", "%-6s"}, {"", "%-8s"}, {"", "%-4s"}, {"", "clients=%-3d"}, {"", "off=%s"}, {"", "on=%s"}, {"", "unperturbed=%t"},
	}}
	for _, r := range rows {
		if r.Section == "pin" {
			pin.rows = append(pin.rows, []any{r.Scheduler, r.System, r.Mix, r.Clients, r.FingerprintOff, r.FingerprintOn, r.Unperturbed})
			continue
		}
		for _, ca := range r.Attribution.Classes {
			line := func(coverage float64, share obs.PhaseShare) []any {
				cells := []any{r.Scheduler, r.System, r.Mix, ca.Class, ca.Ops, ca.MeanNs / 1e3, float64(ca.P99Ns) / 1e3, coverage * 100}
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
