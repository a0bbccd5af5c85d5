package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ArtifactKind says which kind of paper artifact a result reproduces.
type ArtifactKind string

// Artifact kinds.
const (
	KindTable  ArtifactKind = "table"
	KindFigure ArtifactKind = "figure"
)

// CellKind tags the dynamic type of a table cell.
type CellKind int

// Cell kinds.
const (
	CellString CellKind = iota
	CellFloat
	CellInt
)

// Cell is one typed table entry. The text renderers show Text(); the JSON
// renderer preserves the type, the display precision and the unit so
// downstream consumers (dashboards, the serve API) never re-parse strings.
type Cell struct {
	Kind  CellKind
	Str   string
	Float float64
	Int   int64
	// Prec is the number of fractional digits a float renders with.
	Prec int
	// Unit annotates the value ("%", "X", "ms"); it is appended to the
	// rendered text and carried verbatim into JSON.
	Unit string
}

// Str makes a string cell.
func Str(s string) Cell { return Cell{Kind: CellString, Str: s} }

// Float makes a float cell rendered with prec fractional digits.
func Float(v float64, prec int) Cell { return Cell{Kind: CellFloat, Float: v, Prec: prec} }

// Int makes an integer cell.
func Int(v int) Cell { return Cell{Kind: CellInt, Int: int64(v)} }

// WithUnit returns a copy of the cell annotated with a unit.
func (c Cell) WithUnit(unit string) Cell { c.Unit = unit; return c }

// Text renders the cell the way the plain-text and TSV views show it.
func (c Cell) Text() string {
	switch c.Kind {
	case CellFloat:
		return strconv.FormatFloat(c.Float, 'f', c.Prec, 64) + c.Unit
	case CellInt:
		return strconv.FormatInt(c.Int, 10) + c.Unit
	default:
		return c.Str
	}
}

// MarshalJSON emits the schema-stable cell object:
//
//	{"type":"string","value":"..."}
//	{"type":"float","value":1.23,"unit":"%"}   (unit omitted when empty)
//	{"type":"int","value":5}
//
// Float values are rounded to the cell's display precision so the JSON
// number and the rendered text always agree digit for digit.
func (c Cell) MarshalJSON() ([]byte, error) {
	type obj struct {
		Type  string          `json:"type"`
		Value json.RawMessage `json:"value"`
		Unit  string          `json:"unit,omitempty"`
	}
	o := obj{Unit: c.Unit}
	switch c.Kind {
	case CellFloat:
		o.Type = "float"
		text := strconv.FormatFloat(c.Float, 'f', c.Prec, 64)
		if math.IsInf(c.Float, 0) || math.IsNaN(c.Float) {
			// JSON has no non-finite numbers; carry the text rendering
			// ("+Inf", "NaN") as a string so the document stays valid.
			v, err := json.Marshal(text)
			if err != nil {
				return nil, err
			}
			o.Value = v
		} else {
			o.Value = json.RawMessage(text)
		}
	case CellInt:
		o.Type = "int"
		o.Value = json.RawMessage(strconv.FormatInt(c.Int, 10))
	default:
		o.Type = "string"
		v, err := json.Marshal(c.Str)
		if err != nil {
			return nil, err
		}
		o.Value = v
	}
	return json.Marshal(o)
}

// UnmarshalJSON restores a cell from its schema-stable object form. It
// accepts exactly the float forms MarshalJSON writes, so every cell it
// returns re-encodes to itself: a fixed-point number, or a string only for
// a non-finite value. No field of the receiver's previous value survives.
func (c *Cell) UnmarshalJSON(b []byte) error {
	var o struct {
		Type  string          `json:"type"`
		Value json.RawMessage `json:"value"`
		Unit  string          `json:"unit"`
	}
	if err := json.Unmarshal(b, &o); err != nil {
		return err
	}
	*c = Cell{Unit: o.Unit}
	switch o.Type {
	case "float":
		c.Kind = CellFloat
		if len(o.Value) > 0 && o.Value[0] == '"' {
			// Non-finite value carried as its text rendering.
			var text string
			if err := json.Unmarshal(o.Value, &text); err != nil {
				return err
			}
			f, err := strconv.ParseFloat(text, 64)
			if err != nil || !(math.IsInf(f, 0) || math.IsNaN(f)) {
				return fmt.Errorf("report: float cell %q is not a non-finite value", text)
			}
			c.Float = f
			return nil
		}
		if bytes.ContainsAny(o.Value, "eE") {
			// Precision is read off the fraction digits, which an
			// exponent would make meaningless.
			return fmt.Errorf("report: float cell %s is not in fixed-point form", o.Value)
		}
		if err := json.Unmarshal(o.Value, &c.Float); err != nil {
			return err
		}
		// Recover the display precision from the wire form so a decoded
		// cell re-renders identically.
		if dot := bytes.IndexByte(o.Value, '.'); dot >= 0 {
			c.Prec = len(o.Value) - dot - 1
		}
	case "int":
		c.Kind = CellInt
		return json.Unmarshal(o.Value, &c.Int)
	case "string":
		c.Kind = CellString
		return json.Unmarshal(o.Value, &c.Str)
	default:
		return fmt.Errorf("report: unknown cell type %q", o.Type)
	}
	return nil
}

// ConfigEcho is the experiment configuration echoed into every result so a
// stored result is self-describing.
type ConfigEcho struct {
	Scale    string `json:"scale"`
	Replicas int    `json:"replicas"`
	Seed     uint64 `json:"seed"`
}

// Result is the typed outcome of one experiment run: which paper artifact
// it reproduces, the configuration that produced it, how long it took, and
// the artifact's tables. The text, TSV and JSON renderers are all views
// over this one model.
type Result struct {
	// Experiment is the registry ID ("table2", "fig5", ...).
	Experiment string `json:"experiment"`
	// Title is the human headline from the experiment's metadata.
	Title string `json:"title"`
	// Kind says whether the artifact is a paper table or figure.
	Kind ArtifactKind `json:"kind"`
	// Config echoes the scale/replicas/seed that produced the result.
	Config ConfigEcho `json:"config"`
	// WallTimeSeconds is the end-to-end runtime of the experiment
	// (cache hits make it near zero).
	WallTimeSeconds float64 `json:"wall_time_seconds"`
	// Tables holds the artifact's rendered-data tables in paper order.
	Tables []*Table `json:"tables"`
}

// RenderJSON writes the result as indented JSON followed by a newline.
func (r *Result) RenderJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RenderText writes every table of the result in aligned text form.
func (r *Result) RenderText(w io.Writer) error {
	for _, tb := range r.Tables {
		if err := tb.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// RenderTSV writes every table of the result as tab-separated values.
func (r *Result) RenderTSV(w io.Writer) error {
	for _, tb := range r.Tables {
		if err := tb.RenderTSV(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSONResults writes several results as one indented JSON array —
// the document `nnrand -json` emits regardless of how many experiments ran,
// so consumers parse one stable shape.
func RenderJSONResults(w io.Writer, results []*Result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
