// Package emit writes the artifact files the command-line front ends
// leave behind. It is the one place either of them touches the file
// system for output: a failed write names the file and ends the process
// with status 1, a successful one is reported on standard output.
package emit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"chime/internal/bench"
)

// File writes blob to path; err is the error of producing blob, so a
// call site can pass a marshaller's two results straight through.
func File(path string, blob []byte, err error) {
	if err == nil {
		err = os.WriteFile(path, blob, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// JSON writes v, indented, to path.
func JSON(path string, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	File(path, blob, err)
}

// Observer writes the metrics registry and the Chrome trace an observer
// collected, each to its path when that is set.
func Observer(o *bench.Observer, metricsPath, tracePath string) {
	if metricsPath != "" {
		blob, err := o.MetricsJSON()
		File(metricsPath, blob, err)
	}
	if tracePath != "" {
		var buf bytes.Buffer
		err := o.WriteTrace(&buf)
		File(tracePath, buf.Bytes(), err)
	}
}
