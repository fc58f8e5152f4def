package bench

import (
	"fmt"
	"io"

	"chime/internal/rdwc"
	"chime/internal/rolex"
	"chime/internal/ycsb"
)

// Figure 15b: the ROLEX-based half of the factor analysis. Applying the
// hopscotch-leaf technique to the learned index yields "CHIME-Learned";
// the paper's point (§5.3) is that CHIME still wins because model error
// forces the learned index to probe two leaves (two neighborhoods) per
// lookup, while the B+ tree pinpoints one.

func init() {
	register(Experiment{ID: "fig15b", Title: "CHIME vs CHIME-Learned (hopscotch leaves on ROLEX)", Run: Fig15b})
}

// newCHIMELearned builds a ROLEX index with hopscotch leaves.
func newCHIMELearned(cfg SystemConfig) (System, error) {
	opts := rolex.DefaultOptions()
	// Match CHIME's geometry so neighborhoods are comparable: span-64
	// leaves with an H=8 neighborhood.
	opts.SpanSize = 64
	opts.Epsilon = 64
	opts.HopscotchLeaves = true
	opts.Neighborhood = 8
	opts.ValueSize = cfg.ValueSize
	opts.Indirect = cfg.Indirect
	ix, err := rolex.Build(cfg.Fabric, opts, cfg.LoadKeys, nil)
	if err != nil {
		return nil, err
	}
	sys := &rolexSystem{ix: ix, cn: ix.NewComputeNode(), comb: rdwc.NewCombiner()}
	sys.newC = withRDWC(cfg, sys.comb, func() Client { return adapt(sys.cn.NewClient()) })
	return &learnedSystem{rolexSystem: sys}, nil
}

// learnedSystem renames the wrapped ROLEX for reporting.
type learnedSystem struct{ *rolexSystem }

func (s *learnedSystem) Name() string { return "CHIME-Learned" }

// Fig15b compares CHIME against CHIME-Learned and plain ROLEX under
// YCSB C and A.
func Fig15b(w io.Writer, sc Scale) error {
	builders := []struct {
		name    string
		factory Factory
	}{
		{"CHIME", NewCHIME},
		{"CHIME-Learned", newCHIMELearned},
		{"ROLEX", NewROLEX},
	}
	for _, mix := range []ycsb.Mix{ycsb.WorkloadC, ycsb.WorkloadA} {
		fmt.Fprintf(w, "# Figure 15b: CHIME vs CHIME-Learned, YCSB %s\n", mix.Name)
		var rows []Result
		for _, b := range builders {
			f := DefaultFabric(1, sc.MNSize)
			cfg := baseConfig(f, sc, SortedLoadKeys(sc.LoadN))
			sys, err := b.factory(cfg)
			if err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", b.name, err)
			}
			r, err := runPoint(sys, cfg, mix, sc.Clients, sc.Ops, 155)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.name, mix.Name, err)
			}
			r.System = b.name
			rows = append(rows, r)
		}
		fmt.Fprint(w, FormatResults(rows))
	}
	return nil
}
