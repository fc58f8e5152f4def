package bench

import (
	"testing"

	"chime/internal/obs"
	"chime/internal/ycsb"
)

// The fill tests hold what the split rule (nodelayout.SplitPoint) is for:
// a sorted load — the load of every benchmark workload and every figure —
// builds the tree a random load converges to, not the half-empty one
// median splits leave behind an ascending run; and a random load builds
// what it always built.

const fillKeys = 100000

func fillScale() Scale { return Scale{LoadN: fillKeys, MNSize: 64 << 20} }

// loadedShape builds name's tree over keys with the given loaders and
// takes its census; obs, when set, counts the splits.
func loadedShape(t *testing.T, name string, keys []uint64, loaders int, o *Observer) (System, Shape) {
	t.Helper()
	sys, _, err := buildSystem(name, fillScale(), 1, func(c *SystemConfig) {
		c.LoadKeys = keys
		c.LoadClients = loaders
		c.DisableRDWC = true
		c.Obs = o
	})
	if err != nil {
		t.Fatal(err)
	}
	shape, err := TreeShape(sys)
	if err != nil {
		t.Fatal(err)
	}
	if shape.Keys != len(keys) {
		t.Fatalf("%s: census counts %d keys, loaded %d", name, shape.Keys, len(keys))
	}
	return sys, shape
}

// TestSortedLoadFillsLeaves: 100 k sorted keys, through one loader and
// through the grid's eight (each inserting its own ascending chunk, so
// seven frontier leaves carry a few of the next chunk's keys for ever),
// leave at least 42 keys in a 64-slot leaf — the median left 29.8 in
// CHIME's and 32.0 in Sherman's — the two trees within 10 % of each other
// (a rule that engaged for one and not the other would tilt every
// CHIME-vs-Sherman row), and the root at level 2: one level less under
// every cold descent than the 3 362- and 3 125-leaf trees had.
func TestSortedLoadFillsLeaves(t *testing.T) {
	keys := SortedLoadKeys(fillKeys)
	for _, loaders := range []int{1, 8} {
		perLeaf := map[string]float64{}
		for _, name := range []string{"CHIME", "Sherman"} {
			_, s := loadedShape(t, name, keys, loaders, nil)
			t.Logf("%s, %d loader(s): %v", name, loaders, s)
			perLeaf[name] = s.KeysPerLeaf()
			if s.KeysPerLeaf() < 42 {
				t.Errorf("%s, %d loader(s): %.1f keys per leaf, want >= 42: %v", name, loaders, s.KeysPerLeaf(), s)
			}
			if s.Levels != 3 {
				t.Errorf("%s, %d loader(s): root at level %d, want 2: %v", name, loaders, s.Levels-1, s)
			}
		}
		if c, s := perLeaf["CHIME"], perLeaf["Sherman"]; c < 0.9*s || s < 0.9*c {
			t.Errorf("%d loader(s): CHIME %.1f and Sherman %.1f keys per leaf are more than 10 %% apart", loaders, c, s)
		}
	}
}

// TestBatchLoadPacksLikeInsert: the batch write path remembers the key it
// last placed as it applies each op of a cycle, so the same sorted keys
// through InsertBatch (64 keys at depth 8, as a batched run issues them)
// fill the leaves the way Insert does.
func TestBatchLoadPacksLikeInsert(t *testing.T) {
	keys := SortedLoadKeys(fillKeys)
	for _, name := range []string{"CHIME", "Sherman"} {
		_, sync := loadedShape(t, name, keys, 1, nil)
		sys, _ := loadedShape(t, name, nil, 1, nil)
		cl := sys.NewClient()
		vals := make([][]byte, batchKeys)
		for i := range vals {
			vals[i] = make([]byte, 8)
		}
		for lo := 0; lo < len(keys); lo += batchKeys {
			chunk := keys[lo:min(lo+batchKeys, len(keys))]
			for i, err := range cl.(BatchWriter).MultiPut(chunk, vals[:len(chunk)], 8) {
				if err != nil {
					t.Fatalf("%s: MultiPut(%#x): %v", name, chunk[i], err)
				}
			}
		}
		batch, err := TreeShape(sys)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: Insert %v; InsertBatch %v", name, sync, batch)
		if batch.Keys != len(keys) {
			t.Fatalf("%s: census counts %d keys after the batch load, loaded %d", name, batch.Keys, len(keys))
		}
		if b, s := batch.KeysPerLeaf(), sync.KeysPerLeaf(); b < 42 || b < 0.95*s {
			t.Errorf("%s: InsertBatch leaves %.1f keys per leaf, Insert %.1f", name, b, s)
		}
		if batch.Levels != sync.Levels {
			t.Errorf("%s: InsertBatch builds %d levels, Insert %d", name, batch.Levels, sync.Levels)
		}
	}
}

// TestShuffledLoadSplitsAtTheMedian: the rule must not engage where no
// run is. The same 100 k keys in hashed order (one loader, so the tree is
// a function of the keys) build the leaves the median builds — the parent
// commit, 173755a, builds 2 476 and 2 243 — because a client is believed
// only when the key it last placed lies in the node being split, which a
// random inserter's does once in a tree's worth of leaves. CHIME's three
// leaves fewer are one such coincidence, at split 350 of 2 535; with
// "above every key of the node" believed on its own, as the issue first
// had it, the same load takes 42 and 27 run-splits and builds 2 485 and
// 2 250.
func TestShuffledLoadSplitsAtTheMedian(t *testing.T) {
	keys := ycsb.LoadKeys(fillKeys)
	for name, want := range map[string]struct{ leaves, runSplits int }{
		"CHIME":   {2473, 1},
		"Sherman": {2243, 0},
	} {
		o := NewObserver(false)
		_, s := loadedShape(t, name, keys, 1, o)
		reg := o.Sink().Registry()
		splits, runs := reg.Counter(obs.NameSplit).Load(), reg.Counter(obs.NameRunSplit).Load()
		t.Logf("%s: %v; %d splits, %d as a run's", name, s, splits, runs)
		if s.Nodes[0] != want.leaves || int(runs) != want.runSplits {
			t.Errorf("%s: %d leaves and %d run-splits, want %d and %d", name, s.Nodes[0], runs, want.leaves, want.runSplits)
		}
	}
}

// TestScanWorkloadInsertsSplitAtTheMedian: YCSB-E's 5 % inserts are new
// hashed keys landing anywhere in a tree a sorted load filled (the
// benchmark's e_scan workload is this stream); under 3 % of the splits
// they cause may be taken as a run's. The tree is a fifth of the others'
// so that a few seconds of scans bring enough inserts to split it a few
// hundred times.
func TestScanWorkloadInsertsSplitAtTheMedian(t *testing.T) {
	const loadN = fillKeys / 5
	for _, name := range []string{"CHIME", "Sherman"} {
		o := NewObserver(false)
		sys, _ := loadedShape(t, name, SortedLoadKeys(loadN), 1, o)
		reg := o.Sink().Registry()
		splits0, runs0 := reg.Counter(obs.NameSplit).Load(), reg.Counter(obs.NameRunSplit).Load()
		_, err := Run(sys, RunConfig{
			Mix: ycsb.WorkloadE, Clients: 4, OpsPerClient: 30000, ValueSize: 8,
			KeySpace: ycsb.NewKeySpace(loadN), Seed: 5, Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		splits, runs := reg.Counter(obs.NameSplit).Load()-splits0, reg.Counter(obs.NameRunSplit).Load()-runs0
		t.Logf("%s: %d splits under YCSB-E, %d as a run's", name, splits, runs)
		if splits < 100 {
			t.Fatalf("%s: only %d splits: the run does not test the rule", name, splits)
		}
		if runs*100 >= splits*3 {
			t.Errorf("%s: %d of %d splits taken as a run's, want under 3 %%", name, runs, splits)
		}
	}
}
