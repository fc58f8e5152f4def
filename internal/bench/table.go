package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

// Table is what an experiment returns and the one shape every
// BENCH_*.json artifact has: the experiment id, the ordered header
// params of the run, the typed rows, and any sections that follow them.
// Text renders it for the terminal, JSON for the artifact, and ReadTable
// turns an artifact back into the same value — so chime-bench, chimectl
// report and the tests all go through one renderer, one writer and one
// reader.
type Table struct {
	// ID is the experiment id; empty for a bare JSON object (a timeline
	// report, a metrics dump) that ReadTable was pointed at.
	ID string
	// Params sit between "experiment" and "rows" in the artifact, in
	// this order.
	Params []Param
	// Rows is a slice of the experiment's row struct. A field's `json`
	// tag names it in the artifact; its `col:"header,verb[,*k|/k]"` tag
	// makes it a column of the text table, printed with that fmt verb
	// after scaling by the optional factor. Fields without a col tag
	// are artifact-only. A row-slice type with its own layout (dynamic
	// columns, several blocks) implements gridder instead.
	Rows any
	// Extra follows "rows" in the artifact.
	Extra []Param
}

// Param is one named value of a table's envelope.
type Param struct {
	Key   string
	Value any
}

// sizeParams are the header params every index experiment starts with.
func sizeParams(sc Scale) []Param {
	return []Param{{"load_n", sc.LoadN}, {"ops", sc.Ops}}
}

// Lookup decodes the named header param or trailing section into v and
// reports whether it was there. It goes through JSON so it works alike
// on a table an experiment just built and on one ReadTable decoded.
func (t *Table) Lookup(key string, v any) bool {
	for _, ps := range [][]Param{t.Params, t.Extra} {
		for _, p := range ps {
			if p.Key == key {
				blob, err := json.Marshal(p.Value)
				return err == nil && json.Unmarshal(blob, v) == nil
			}
		}
	}
	return false
}

// JSON renders the artifact, indented the way json.MarshalIndent would
// render a struct with these fields in this order.
func (t *Table) JSON() ([]byte, error) {
	fields := make([]Param, 0, len(t.Params)+len(t.Extra)+2)
	if t.ID != "" {
		fields = append(fields, Param{"experiment", t.ID})
	}
	fields = append(fields, t.Params...)
	if t.Rows != nil {
		fields = append(fields, Param{"rows", t.Rows})
	}
	var b bytes.Buffer
	b.WriteByte('{')
	for i, p := range append(fields, t.Extra...) {
		name, _ := json.Marshal(p.Key) // a string always marshals
		blob, err := json.Marshal(p.Value)
		if err != nil {
			return nil, fmt.Errorf("bench: artifact field %q: %w", p.Key, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", name, blob)
	}
	b.WriteByte('}')
	var out bytes.Buffer
	if err := json.Indent(&out, b.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ReadTable decodes a JSON object into a Table, keeping its key order.
// The rows of a registered experiment's artifact come back as that
// experiment's row type; every other value stays raw JSON, so a table
// read from an artifact re-encodes to the bytes it was read from.
func ReadTable(blob []byte) (*Table, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("bench: artifact is not a JSON object")
	}
	t := &Table{}
	dst := &t.Params
	for first := true; dec.More(); first = false {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("bench: artifact: %w", err)
		}
		key := tok.(string) // an object's members start with a string
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("bench: artifact field %q: %w", key, err)
		}
		switch {
		case first && key == "experiment":
			if err := json.Unmarshal(raw, &t.ID); err != nil {
				return nil, fmt.Errorf("bench: artifact field %q: %w", key, err)
			}
		case key == "rows" && t.Rows == nil:
			t.Rows = raw
			if e, err := FindExperiment(t.ID); err == nil && e.Rows != nil {
				rows := reflect.New(reflect.TypeOf(e.Rows))
				if err := json.Unmarshal(raw, rows.Interface()); err != nil {
					return nil, fmt.Errorf("bench: %s rows: %w", t.ID, err)
				}
				t.Rows = rows.Elem().Interface()
			}
			dst = &t.Extra
		default:
			*dst = append(*dst, Param{key, raw})
		}
	}
	return t, nil
}

// Text renders the table for the terminal.
func (t *Table) Text() string {
	var grids []grid
	switch rows := t.Rows.(type) {
	case nil, json.RawMessage:
	case gridder:
		grids = rows.grids(t)
	default:
		grids = []grid{gridOf(rows)}
	}
	var out strings.Builder
	for _, g := range grids {
		out.WriteString(g.String())
	}
	var lines []string
	t.Lookup("output", &lines)
	for _, l := range lines {
		out.WriteString(l + "\n")
	}
	return out.String()
}

// gridder is implemented by row-slice types whose text is more than one
// tag-described block.
type gridder interface {
	grids(t *Table) []grid
}

// grid is one aligned text block: a verbatim title, a header line and
// one line per row. The header is derived from the column verbs, so a
// header and its column cannot drift apart.
type grid struct {
	title string
	cols  []col
	rows  [][]any
}

// col is one column: its header and the fmt verb its cells print with.
// A nil pointer cell prints "-"; a headerless grid prints no header.
type col struct{ head, verb string }

var verbRE = regexp.MustCompile(`^(.*?)%(-?)(\d+)(?:\.\d+)?[a-z](.*)$`)

// headVerb turns a cell verb into the %s verb of equal width and
// alignment: "%10.3f" -> "%10s", "%-8s" -> "%-8s", "%5.1f%%" -> "%6s".
func headVerb(verb string) string {
	m := verbRE.FindStringSubmatch(verb)
	if m == nil {
		return "%s"
	}
	width, _ := strconv.Atoi(m[3])
	width += len(strings.ReplaceAll(m[1]+m[4], "%%", "%"))
	return "%" + m[2] + strconv.Itoa(width) + "s"
}

func (g grid) String() string {
	var out strings.Builder
	out.WriteString(g.title)
	line := func(cell func(i int, c col) string) {
		for i, c := range g.cols {
			if i > 0 {
				out.WriteByte(' ')
			}
			out.WriteString(cell(i, c))
		}
		out.WriteByte('\n')
	}
	if len(g.cols) > 0 && g.cols[0].head != "" {
		line(func(_ int, c col) string { return fmt.Sprintf(headVerb(c.verb), c.head) })
	}
	for _, row := range g.rows {
		line(func(i int, c col) string {
			v := row[i]
			if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer {
				if rv.IsNil() {
					return fmt.Sprintf(headVerb(c.verb), "-")
				}
				v = rv.Elem().Interface()
			}
			return fmt.Sprintf(c.verb, v)
		})
	}
	return out.String()
}

// gridOf lays out a slice of tagged row structs (see Table.Rows); the
// fields of an embedded row struct count as the outer row's own.
func gridOf(rows any) grid {
	v := reflect.ValueOf(rows)
	var g grid
	var fields [][]int
	var scale []func(float64) float64
	for _, f := range reflect.VisibleFields(v.Type().Elem()) {
		tag, ok := f.Tag.Lookup("col")
		if !ok {
			continue
		}
		parts := strings.Split(tag, ",")
		g.cols = append(g.cols, col{parts[0], parts[1]})
		fields = append(fields, f.Index)
		var fn func(float64) float64
		if len(parts) > 2 {
			k, err := strconv.ParseFloat(parts[2][1:], 64)
			if err != nil {
				panic(fmt.Sprintf("bench: field %s: bad col scale %q", f.Name, parts[2]))
			}
			if parts[2][0] == '/' {
				fn = func(x float64) float64 { return x / k }
			} else {
				fn = func(x float64) float64 { return x * k }
			}
		}
		scale = append(scale, fn)
	}
	floatType := reflect.TypeOf(float64(0))
	for r := 0; r < v.Len(); r++ {
		cells := make([]any, len(fields))
		for c, index := range fields {
			fv := v.Index(r).FieldByIndex(index)
			if scale[c] != nil {
				cells[c] = scale[c](fv.Convert(floatType).Float())
			} else {
				cells[c] = fv.Interface()
			}
		}
		g.rows = append(g.rows, cells)
	}
	return g
}
