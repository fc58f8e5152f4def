package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chime/internal/obs"
	"chime/internal/ycsb"
)

// The files under testdata/golden were written at the last commit that
// had one Format*Rows and one Marshal*JSON per experiment (see its
// README): for each of the seven artifact-bearing experiments, that
// commit's text and JSON for a fixed row set; and the results of
// one-client RunMultiGet / RunMultiPut runs. The tests below hold the
// one renderer, the one writer, the one reader and the merged Run to
// those bytes.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenTables: for each experiment, the rows of the golden
// artifact, wrapped by the experiment's own table constructor with the
// options the golden was written under, must render to the golden text
// and marshal to the golden JSON, byte for byte.
func TestGoldenTables(t *testing.T) {
	sc := SmallScale
	build := map[string]func(rows any, art *Table) *Table{
		"pipeline":  func(rows any, _ *Table) *Table { return depthTable("pipeline", sc, rows) },
		"writepipe": func(rows any, _ *Table) *Table { return depthTable("writepipe", sc, rows) },
		"faults":    func(rows any, _ *Table) *Table { return faultsTable(sc, rows.([]FaultRow)) },
		"scale": func(rows any, _ *Table) *Table {
			return scaleTable(scaleOptions{lanes: 2}, rows.([]ScaleRow))
		},
		"offload": func(rows any, _ *Table) *Table {
			return offloadTable(sc, offloadOptions{mnCPUs: 4, mnServiceNs: 300}, rows.([]OffloadRow))
		},
		"attribution": func(rows any, art *Table) *Table {
			var tl obs.TimelineReport
			if !art.Lookup("timeline_sample", &tl) {
				t.Fatal("golden attribution artifact has no timeline sample")
			}
			return attributionTable(sc, rows.(AttributionRows), &tl)
		},
		"persist": func(rows any, _ *Table) *Table { return persistTable(sc, "/tmp/snap", rows.([]PersistRow)) },
	}
	for id, table := range build {
		t.Run(id, func(t *testing.T) {
			wantJSON := golden(t, id+".json")
			art, err := ReadTable(wantJSON)
			if err != nil {
				t.Fatal(err)
			}
			tab := table(art.Rows, art)
			if got := tab.Text(); got != string(golden(t, id+".txt")) {
				t.Errorf("text differs from the golden:\n%s", got)
			}
			got, err := tab.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("JSON differs from the golden:\n%s", got)
			}
		})
	}
}

// TestCommittedArtifactsRoundTrip: every committed BENCH_*.json decodes
// through the one reader — rows into the registered row type — and
// re-encodes to the identical bytes.
func TestCommittedArtifactsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) < 8 {
		t.Fatalf("found %d committed artifacts (err %v), want the seven experiments' and the timeline", len(paths), err)
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ReadTable(blob)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if tab.ID != "" {
			if _, raw := tab.Rows.(json.RawMessage); raw || tab.Rows == nil {
				t.Errorf("%s: rows of experiment %q did not decode into its row type", path, tab.ID)
			}
			if tab.Text() == "" {
				t.Errorf("%s: renders to nothing", path)
			}
		}
		got, err := tab.JSON()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, blob) {
			t.Errorf("%s: re-encoded artifact differs from the committed bytes", path)
		}
	}
}

// batchPoint is one row of batch_runs.json.
type batchPoint struct {
	Kind   string `json:"kind"` // "get": RunMultiGet, "put": RunMultiPut
	System string `json:"system"`
	Mix    string `json:"mix"`
	Depth  int    `json:"depth"`

	Ops            int64   `json:"ops"`
	ThroughputMops float64 `json:"throughput_mops"`
	P50Us          float64 `json:"p50_us"`
	P99Us          float64 `json:"p99_us"`
	TripsPerOp     float64 `json:"trips_per_op"`
	ReadBytes      float64 `json:"read_bytes_per_op"`
	WriteBytes     float64 `json:"write_bytes_per_op"`
	MaxInflight    int64   `json:"max_inflight"`
	WriteCycles    int64   `json:"write_cycles"`
	CombinedKeys   int64   `json:"combined_keys"`
}

// rewriteSplitRows is for a declared change of where B-tree nodes split
// (nodelayout.SplitPoint) and nothing else: it rewrites the differing
// rows of batch_runs.json that are CHIME's or Sherman's — the trees the
// rule builds. A differing SMART or ROLEX row still fails, and rows are
// neither added nor removed. (The rows pinned as Go literals,
// TestScanRowPinned and TestFullHotspotBufferRowPinned, print what they
// measured when they fail.)
var rewriteSplitRows = flag.Bool("rewrite-split-rows", false,
	"rewrite the differing CHIME and Sherman rows of testdata/golden/batch_runs.json; any other differing row still fails")

// TestBatchedRunMatchesGolden: the merged Run, batching reads
// (ReadDepth) or reads and writes (ReadDepth and WriteDepth), reproduces
// exactly what RunMultiGet and RunMultiPut measured for one client on a
// cold cache: throughput, latency percentiles, trips and bytes per op,
// pipeline depth reached and write-combining counters. (The rows were
// rewritten once since, through -rewrite-split-rows: the README beside
// the file.)
func TestBatchedRunMatchesGolden(t *testing.T) {
	const name = "batch_runs.json"
	var points []batchPoint
	if err := json.Unmarshal(golden(t, name), &points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("golden has %d points, want 2 systems x 2 mixes x 2 depths x 2 runners", len(points))
	}
	sc := Scale{LoadN: 3000, Ops: 600, Clients: 1, MNSize: 256 << 20}
	measured := make([]batchPoint, len(points))
	for i, want := range points {
		sys, cfg, err := buildSystem(want.System, sc, 1, func(c *SystemConfig) {
			c.CacheBytes = 0
			c.DisableRDWC = true
			c.LoadClients = 1
		})
		if err != nil {
			t.Fatal(err)
		}
		mix, err := ycsb.MixByName(want.Mix)
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{
			Mix: mix, Clients: 1, OpsPerClient: sc.Ops, ReadDepth: want.Depth,
			ValueSize: cfg.ValueSize, KeySpace: NewKeySpaceFor(cfg.LoadKeys), Seed: 31,
		}
		if want.Kind == "put" {
			rc.WriteDepth = want.Depth
		}
		r, err := Run(sys, rc)
		if err != nil {
			t.Fatal(err)
		}
		got := want
		got.Ops, got.ThroughputMops, got.P50Us, got.P99Us = r.Ops, r.ThroughputMops, r.P50Us, r.P99Us
		got.TripsPerOp, got.ReadBytes, got.WriteBytes = r.TripsPerOp, r.ReadBytes, r.WriteBytes
		got.MaxInflight = r.MaxInflight
		if want.Kind == "put" { // RunMultiGet did not report the write-combining counters
			got.WriteCycles, got.CombinedKeys = r.WCCycles, r.WCCombinedKeys
		}
		measured[i] = got
		switch bTree := want.System == "CHIME" || want.System == "Sherman"; {
		case got == want:
		case *rewriteSplitRows && bTree:
			t.Logf("| `%s %s %s depth %d` | %.4f → %.4f | %.4f → %.4f | %.1f → %.1f |", want.Kind, want.System, want.Mix, want.Depth,
				want.ThroughputMops, got.ThroughputMops, want.TripsPerOp, got.TripsPerOp, want.ReadBytes, got.ReadBytes)
		default:
			t.Errorf("%s %s %s depth %d moved:\n got: %+v\nwant: %+v", want.Kind, want.System, want.Mix, want.Depth, got, want)
		}
	}
	if !*rewriteSplitRows || t.Failed() {
		return
	}
	out, err := json.MarshalIndent(measured, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden", name), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEveryExperimentExecutes runs every registered experiment at a
// tiny scale through Experiment.Execute, the one dispatch path: each
// must print something and return a table that marshals, and whose
// artifact reads back to the same bytes.
func TestEveryExperimentExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	sc := Scale{LoadN: 1500, Ops: 400, ClientSweep: []int{2}, Clients: 2, MNSize: 128 << 20, Trials: 1}
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			var out strings.Builder
			tab, err := e.Execute(&out, sc)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 || tab.ID != e.ID {
				t.Fatalf("printed %d bytes, table id %q", out.Len(), tab.ID)
			}
			if !strings.Contains(e.Heading(sc), e.ID+": "+e.Title) {
				t.Errorf("heading %q does not name the experiment", e.Heading(sc))
			}
			blob, err := tab.JSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ReadTable(blob)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := back.JSON(); err != nil || !bytes.Equal(again, blob) {
				t.Errorf("artifact does not survive a read/write round trip (err %v)", err)
			}
			if e.Table != nil && back.Text() != out.String() {
				t.Errorf("artifact renders differently from the run that wrote it")
			}
		})
	}
}

// TestExecuteCarriesPaperFigureText: a paper-figure experiment streams
// its text and returns it as the table's output lines, so -json works
// for it too.
func TestExecuteCarriesPaperFigureText(t *testing.T) {
	e, err := FindExperiment("fig19b")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Execute(io.Discard, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if !tab.Lookup("output", &lines) || len(lines) == 0 || !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("table carries no output lines: %+v", tab)
	}
}
