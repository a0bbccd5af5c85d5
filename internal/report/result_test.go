package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCellText(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Str("ALGO"), "ALGO"},
		{Float(3.14159, 2), "3.14"},
		{Float(61.333333, 2).WithUnit("%"), "61.33%"},
		{Float(2.049, 1).WithUnit("X"), "2.0X"},
		{Int(128), "128"},
		{Int(746).WithUnit("%"), "746%"},
	}
	for _, c := range cases {
		if got := c.cell.Text(); got != c.want {
			t.Errorf("Text(%+v) = %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestCellJSONRoundTrip(t *testing.T) {
	cells := []Cell{Str("x"), Float(1.2345, 3).WithUnit("%"), Int(-7)}
	for _, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		// The wire value is rounded to display precision, so comparing the
		// rendered text is the invariant that must hold.
		if back.Text() != c.Text() {
			t.Fatalf("round trip %s: text %q != %q", b, back.Text(), c.Text())
		}
		if back.Kind != c.Kind || back.Unit != c.Unit {
			t.Fatalf("round trip %s: kind/unit changed: %+v vs %+v", b, back, c)
		}
	}
}

func TestCellUnknownTypeRejected(t *testing.T) {
	var c Cell
	if err := json.Unmarshal([]byte(`{"type":"blob","value":1}`), &c); err == nil {
		t.Fatal("unknown cell type accepted")
	}
}

// TestResultJSONGolden pins the exact wire format of a rendered Result.
// Any change to this document is a breaking change for API consumers and
// must be deliberate.
func TestResultJSONGolden(t *testing.T) {
	tb := New("Figure X: demo", "task", "acc", "churn")
	tb.AddCells(Str("SmallCNN"), Float(61.5, 2).WithUnit("%"), Float(3.125, 3))
	tb.AddCells(Str("ResNet18"), Float(70, 2).WithUnit("%"), Int(0))
	res := &Result{
		Experiment:      "figX",
		Title:           "Figure X: demo",
		Kind:            KindFigure,
		Config:          ConfigEcho{Scale: "test", Replicas: 2, Seed: 42},
		WallTimeSeconds: 1.5,
		Tables:          []*Table{tb},
	}
	var b strings.Builder
	if err := res.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "experiment": "figX",
  "title": "Figure X: demo",
  "kind": "figure",
  "config": {
    "scale": "test",
    "replicas": 2,
    "seed": 42
  },
  "wall_time_seconds": 1.5,
  "tables": [
    {
      "title": "Figure X: demo",
      "headers": [
        "task",
        "acc",
        "churn"
      ],
      "rows": [
        [
          {
            "type": "string",
            "value": "SmallCNN"
          },
          {
            "type": "float",
            "value": 61.50,
            "unit": "%"
          },
          {
            "type": "float",
            "value": 3.125
          }
        ],
        [
          {
            "type": "string",
            "value": "ResNet18"
          },
          {
            "type": "float",
            "value": 70.00,
            "unit": "%"
          },
          {
            "type": "int",
            "value": 0
          }
        ]
      ]
    }
  ]
}
`
	if b.String() != golden {
		t.Fatalf("JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", b.String(), golden)
	}
}

// TestResultJSONMatchesText asserts the acceptance property: the JSON view
// carries the same values as the text table, digit for digit.
func TestResultJSONMatchesText(t *testing.T) {
	tb := New("T", "a", "b")
	tb.AddCells(Float(97.19999, 2), Float(0.1049, 3))
	var buf strings.Builder
	if err := (&Result{Tables: []*Table{tb}}).RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	got := back.Tables[0].TextRows()
	want := tb.TextRows()
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("cell (%d,%d): JSON %q != text %q", r, c, got[r][c], want[r][c])
			}
		}
	}
}

func TestRenderJSONResultsIsArray(t *testing.T) {
	var b strings.Builder
	if err := RenderJSONResults(&b, []*Result{{Experiment: "a"}, {Experiment: "b"}}); err != nil {
		t.Fatal(err)
	}
	var arr []Result
	if err := json.Unmarshal([]byte(b.String()), &arr); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 || arr[0].Experiment != "a" || arr[1].Experiment != "b" {
		t.Fatalf("array round trip: %+v", arr)
	}
}

// TestNonFiniteFloatCellJSON pins the wire form of non-finite float cells:
// JSON has no Inf/NaN literals, so they are carried as their text
// rendering and still round-trip (Figure 3's normalized scales can be
// +Inf at tiny replica counts when the overall stddev is zero).
func TestNonFiniteFloatCellJSON(t *testing.T) {
	tb := New("t", "v")
	tb.AddCells(Float(math.Inf(1), 2).WithUnit("X"))
	res := &Result{Experiment: "x", Title: "t", Kind: KindTable, Tables: []*Table{tb}}
	var buf bytes.Buffer
	if err := res.RenderJSON(&buf); err != nil {
		t.Fatalf("non-finite cell does not marshal: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"+Inf"`)) {
		t.Fatalf("wire form does not carry the text rendering: %s", buf.Bytes())
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	cell := back.Tables[0].Rows[0][0]
	if !math.IsInf(cell.Float, 1) || cell.Unit != "X" {
		t.Fatalf("round-tripped cell = %+v", cell)
	}
}

// FuzzCellJSON: the result store reads every stored table cell back
// through Cell.UnmarshalJSON. Whatever bytes a record holds, decoding must
// never panic, and a cell that decodes must encode and decode again to the
// same cell: kind, text, integer, precision, unit and float bits (JSON
// cannot promise the same bytes, so the bytes are not compared).
func FuzzCellJSON(f *testing.F) {
	for _, c := range []Cell{
		Str("ALGO"), Str("σ ≠ \"0\"\n"), Int(-7).WithUnit("%"), Int(math.MaxInt64),
		Float(61.333333, 2).WithUnit("%"), Float(math.Copysign(0, -1), 1), Float(1e300, 0),
		Float(math.Inf(1), 2).WithUnit("X"), Float(math.Inf(-1), 0), Float(math.NaN(), 3),
	} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode over a dirty cell: nothing of it may survive.
		c := Cell{Kind: CellInt, Str: "stale", Float: 2.5, Int: 9, Prec: 4, Unit: "stale"}
		if err := json.Unmarshal(b, &c); err != nil {
			return
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("decoded %s to %+v, which does not encode: %v", b, c, err)
		}
		var back Cell
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoded %s to %+v, whose encoding %s does not decode: %v", b, c, enc, err)
		}
		if back.Kind != c.Kind || back.Str != c.Str || back.Int != c.Int || back.Prec != c.Prec ||
			back.Unit != c.Unit || math.Float64bits(back.Float) != math.Float64bits(c.Float) {
			t.Fatalf("decoded %s to %+v, re-encoded %s decodes to %+v", b, c, enc, back)
		}
	})
}
