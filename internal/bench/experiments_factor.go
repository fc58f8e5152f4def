package bench

import (
	"fmt"
	"io"

	"chime/internal/core"
	"chime/internal/ycsb"
)

// Factor analysis experiments (§5.3): applying CHIME's techniques one
// by one, the sibling-based-validation metadata saving, and the
// speculative-read contribution.

func init() {
	register(Experiment{ID: "fig15", Title: "Factor analysis of CHIME techniques", Run: Fig15})
	register(Experiment{ID: "fig16", Title: "Sibling-based validation metadata saving", Run: Fig16})
	register(Experiment{ID: "fig17", Title: "Speculative read contribution", Run: Fig17})
}

// Fig15 reproduces Figure 15 (Sherman-based half): starting from
// Sherman and applying the hopscotch leaf, vacancy-bitmap piggybacking,
// leaf metadata replication and speculative reads one at a time, on the
// workloads where each technique matters.
func Fig15(w io.Writer, sc Scale) error {
	type stage struct {
		label string
		name  string
		mut   func(*SystemConfig)
	}
	stages := []stage{
		{"Sherman (baseline)", "Sherman", nil},
		{"+Hopscotch leaf", "CHIME", func(c *SystemConfig) {
			c.DisablePiggyback = true
			c.DisableReplication = true
			c.DisableSpeculation = true
		}},
		{"+Vacancy piggyback", "CHIME", func(c *SystemConfig) {
			c.DisableReplication = true
			c.DisableSpeculation = true
		}},
		{"+Meta replication", "CHIME", func(c *SystemConfig) {
			c.DisableSpeculation = true
		}},
		{"+Speculative read", "CHIME", nil},
	}
	for _, mix := range []ycsb.Mix{ycsb.WorkloadC, ycsb.WorkloadLoad, ycsb.WorkloadA} {
		fmt.Fprintf(w, "# Figure 15: factor analysis, YCSB %s\n", mix.Name)
		var rows []Result
		for _, st := range stages {
			r, err := measured(st.label, st.name, sc, st.mut, mix, 15)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		fmt.Fprint(w, FormatResults(rows))
	}
	return nil
}

// Fig16 reproduces Figure 16: per-entry leaf metadata bytes with
// fence-key replication vs sibling-based validation as the key size
// grows (analytic model from §4.5, validated against the paper's
// 1.4x..8.6x endpoints).
func Fig16(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 16: leaf metadata bytes per entry (H=8, 8B values)\n")
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "keyB", "fence-repl", "sibling-val", "saving")
	for _, ks := range []int{8, 16, 32, 64, 128, 256} {
		fence := core.MetadataBytesPerEntry(ks, 8, 8, false)
		sv := core.MetadataBytesPerEntry(ks, 8, 8, true)
		fmt.Fprintf(w, "%-8d %14.2f %14.2f %9.1fx\n", ks, fence, sv, fence/sv)
	}
	return nil
}

// Fig17 reproduces Figure 17: YCSB C throughput with and without
// speculative reads as the client count grows; the benefit appears when
// the NIC saturates, because successful speculations replace H-entry
// neighborhood reads with single-entry reads.
func Fig17(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 17: speculative read (SR) contribution, YCSB C\n")
	var rows []Result
	for _, variant := range []struct {
		label   string
		disable bool
	}{{"CHIME w/o SR", true}, {"CHIME w/ SR", false}} {
		sys, cfg, err := buildSystem("CHIME", sc, 1, func(c *SystemConfig) {
			c.DisableSpeculation = variant.disable
		})
		if err != nil {
			return err
		}
		for _, clients := range sc.ClientSweep {
			r, err := runPoint(sys, cfg, ycsb.WorkloadC, clients, sc.Ops, 17)
			if err != nil {
				return err
			}
			r.System = variant.label
			rows = append(rows, r)
		}
		cfg.Fabric.Close()
	}
	fmt.Fprint(w, FormatResults(rows))
	return nil
}
