// Package durableio confines host file I/O to the durability plane.
// The simulator's determinism contract (same-seed bit-identical runs,
// TestPersistOffMeansOff) holds because simulation packages never touch
// the host filesystem: every durable byte flows through internal/folio,
// whose append/flush costs are charged to virtual time as pure
// functions of byte counts, never of host I/O timing. One stray
// os.Open in an index or the fabric reintroduces host-dependent state
// and breaks crash-recovery replay. The one other confined package is
// internal/hostmem, which maps the memory behind an MN pool. cmd/ front
// ends (artifact files, progress logs) and the analysis tree (the lint
// tool must read source) stay free to do real I/O.
package durableio

import (
	"strconv"
	"strings"

	"chime/internal/analysis"
)

// Confined are the internal packages allowed to import the host
// surface: the durability plane (files) and the package that asks the
// kernel for a memory node's pool (hostmem: mmap, no descriptor, no
// state that outlives the process — nothing a replay could depend on).
var Confined = map[string]bool{
	"chime/internal/folio":   true,
	"chime/internal/hostmem": true,
}

// exemptPrefixes are internal subtrees outside the simulation: the
// lint infrastructure reads and type-checks source files by nature.
var exemptPrefixes = []string{
	"chime/internal/analysis",
}

// banned maps import paths that imply host file/process I/O to a short
// description used in the diagnostic. Pure byte plumbing (bufio, io,
// encoding/*) stays legal — the gate is the package that opens the
// descriptor, not the one that wraps it.
var banned = map[string]string{
	"os":            "file and process I/O",
	"io/ioutil":     "legacy file I/O",
	"io/fs":         "filesystem traversal",
	"os/exec":       "subprocess I/O",
	"path/filepath": "host path handling (use folio.Join)",
	"syscall":       "raw host syscalls",
}

var Analyzer = &analysis.Analyzer{
	Name: "durableio",
	Doc:  "confine host file I/O imports (os, io/ioutil, os/exec, path/filepath, syscall) to internal/folio, internal/hostmem and cmd/; simulation packages must stay filesystem-free",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "chime/internal/") || Confined[path] {
		return nil, nil
	}
	for _, pre := range exemptPrefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return nil, nil
		}
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			what, bad := banned[ip]
			if !bad {
				continue
			}
			pass.Reportf(imp.Path.Pos(), "import %q (%s): host I/O is confined to internal/folio, internal/hostmem and cmd/; %s must stay filesystem-free — route durable bytes through folio (ScratchDir, Exists, Join) or move the I/O to a cmd front end",
				ip, what, path)
		}
	}
	return nil, nil
}
