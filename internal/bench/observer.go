package bench

import (
	"io"
	"sync"

	"chime/internal/obs"
)

// MetricsSchema identifies the metrics JSON artifact layout emitted by
// Observer.MetricsJSON (and chime-bench -metrics-json). v2 renamed the
// NIC instruments from nic.* to dm.nic.* so every instrument name fits
// the ^(dm|idx|fault|bench)\. namespace enforced by the obsnames
// analyzer (cmd/chimelint). v3 adds the MN compute plane's dm.mn.*
// instruments (dm.mn.service_ns, dm.mn.queue_ns, dm.mn.queue_depth,
// dm.mn.offload, dm.mn.fallback) and the offload columns of Result.
// v4 adds the optional flight section (per-op-class tail-latency
// attribution plus the virtual-time timeline) emitted when the flight
// recorder is enabled (chime-bench -flightrec). v5 adds MaxInflight to
// the rows' Result, v6 Handoffs, v7 Shape (the B-tree's levels, nodes per
// level and keys after the run).
const MetricsSchema = "chime-bench/metrics/v7"

// Observer ties one obs.Sink to the bench harness: systems built with
// SystemConfig.Obs count protocol events (and optionally trace spans)
// into it, and every Run sharing the observer folds per-run registry
// deltas into its Result and records the row for the metrics artifact.
// A nil *Observer disables everything.
type Observer struct {
	sink *obs.Sink

	mu   sync.Mutex
	rows []ObsRow

	// Fabric topology captured by the last Run, for normalizing the
	// flight recorder's timeline utilization figures.
	nics    int
	mnCores int
}

// ObsRow pairs one measured result with the cumulative registry
// snapshot taken when that run finished; consecutive rows can be
// differenced for per-run histogram movement.
type ObsRow struct {
	Result   Result       `json:"result"`
	Registry obs.Snapshot `json:"registry"`
}

// NewObserver returns an observer with a fresh registry; with trace set
// it also buffers Chrome trace_event spans (see WriteTrace).
func NewObserver(trace bool) *Observer {
	return &Observer{sink: obs.NewSink(trace)}
}

// EnableFlightRecorder attaches a per-op flight recorder to the
// observer's sink. Must be called before systems and fabrics are built
// with this observer — clients capture the recorder at creation. Nil-safe
// no-op on a nil observer.
func (o *Observer) EnableFlightRecorder(cfg obs.FlightConfig) {
	if o == nil {
		return
	}
	o.sink.SetFlightRecorder(obs.NewFlightRecorder(cfg))
}

// Sink exposes the underlying sink for wiring into compute nodes and
// fabrics. Nil-safe: a nil observer yields a nil sink, which every
// SetObserver treats as "off".
func (o *Observer) Sink() *obs.Sink {
	if o == nil {
		return nil
	}
	return o.sink
}

func (o *Observer) record(r Result) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.rows = append(o.rows, ObsRow{Result: r, Registry: o.sink.Registry().Snapshot()})
	o.mu.Unlock()
}

func (o *Observer) noteTopology(nics, mnCores int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.nics, o.mnCores = nics, mnCores
	o.mu.Unlock()
}

// FlightReport renders the attached flight recorder's attribution and
// timeline reports, normalized by the last Run's fabric topology. Nil
// when no recorder is attached.
func (o *Observer) FlightReport() *FlightSection {
	if o == nil {
		return nil
	}
	rec := o.sink.FlightRecorder()
	if rec == nil {
		return nil
	}
	o.mu.Lock()
	nics, cores := o.nics, o.mnCores
	o.mu.Unlock()
	return &FlightSection{
		Attribution: rec.Attribution(),
		Timeline:    rec.Timeline(nics, cores),
	}
}

// FlightSection is the metrics artifact's flight block: per-op-class latency
// attribution plus the windowed virtual-time timeline. The recorder is
// reset at the start of every measured Run, so the section reflects the
// observer's most recent run.
type FlightSection struct {
	Attribution obs.AttributionReport `json:"attribution"`
	Timeline    obs.TimelineReport    `json:"timeline"`
}

// Rows returns the recorded result rows in completion order.
func (o *Observer) Rows() []ObsRow {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]ObsRow(nil), o.rows...)
}

// MetricsJSON renders the metrics artifact: the schema tag, every
// recorded row, the final registry snapshot (counters, gauges and
// histogram summaries, including the NIC service/queue distributions)
// and the trace buffer's fill level.
func (o *Observer) MetricsJSON() ([]byte, error) {
	t := &Table{
		Params: []Param{{"schema", MetricsSchema}},
		Rows:   append([]ObsRow{}, o.Rows()...), // [] rather than null when nothing ran
		Extra: []Param{
			{"registry", o.sink.Registry().Snapshot()},
			{"trace_events", o.sink.Tracer().Len()},
			{"trace_dropped", o.sink.Tracer().Dropped()},
		},
	}
	if fr := o.FlightReport(); fr != nil {
		t.Extra = append(t.Extra, Param{"flight", fr})
	}
	return t.JSON()
}

// WriteTrace writes the buffered spans in Chrome trace_event JSON
// (about:tracing / Perfetto). An untraced observer writes an empty but
// valid trace.
func (o *Observer) WriteTrace(w io.Writer) error {
	return o.sink.Tracer().WriteJSON(w)
}
