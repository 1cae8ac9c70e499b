package taskrt

import (
	"bytes"
	"strings"
	"testing"
)

func TestTemplateDumpRoundTrip(t *testing.T) {
	c := NewCapture()
	x, y := key("x"), key("y")
	c.Submit(&Task{Label: "w", Kind: "proj", Out: []Dep{x}, Flops: 10, WorkingSet: 64})
	c.Submit(&Task{Label: "r", Kind: "lstm", In: []Dep{x}, Out: []Dep{y}})
	c.Submit(&Task{Label: "m", Kind: "merge", In: []Dep{y}, InOut: []Dep{x}})
	tpl := c.Freeze()
	tpl.Name = "tiny"

	df := &TemplateDumpFile{
		Version:   TemplateDumpVersion,
		Templates: []TemplateDump{tpl.Dump(func(d Dep) string { return string(d.(key)) })},
	}
	var buf bytes.Buffer
	if err := df.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTemplateDumps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := &back.Templates[0]
	if d.Name != "tiny" || len(d.Nodes) != 3 {
		t.Fatalf("round trip mangled the template: %+v", d)
	}
	if d.Edges() != tpl.Edges() || d.FullEdges != tpl.fullEdges {
		t.Fatalf("edge counts lost: dump %d/%d, template %d/%d",
			d.Edges(), d.FullEdges, tpl.Edges(), tpl.fullEdges)
	}
	if d.Keys[d.Nodes[0].Out[0]] != "x" {
		t.Fatalf("key naming lost: %v", d.Keys)
	}
	// The same key must intern to one ID everywhere it appears.
	if d.Nodes[0].Out[0] != d.Nodes[1].In[0] || d.Nodes[0].Out[0] != d.Nodes[2].InOut[0] {
		t.Fatalf("key %q not interned consistently: %+v", "x", d.Nodes)
	}
}

func TestTemplateDumpNilNamer(t *testing.T) {
	c := NewCapture()
	c.Submit(&Task{Label: "w", Out: []Dep{key("x")}})
	d := c.Freeze().Dump(nil)
	if len(d.Keys) != 1 || !strings.HasPrefix(d.Keys[0], "key#") {
		t.Fatalf("nil namer keys = %v, want generated names", d.Keys)
	}
}

func TestReadTemplateDumpsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"version", `{"version": 99, "templates": []}`, "version"},
		{"pred-order", `{"version": 1, "templates": [{"name": "t", "keys": [],
			"nodes": [{"label": "a", "preds": [0]}]}]}`, "predecessor"},
		{"key-range", `{"version": 1, "templates": [{"name": "t", "keys": ["x"],
			"nodes": [{"label": "a", "in": [3]}]}]}`, "key"},
	}
	for _, tc := range cases {
		_, err := ReadTemplateDumps(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestTemplateDotRendersLabels checks a frozen template's dump renders
// through the shared DOT path with task labels and data/ordering edge
// styles.
func TestTemplateDotRendersLabels(t *testing.T) {
	c := NewCapture()
	x := key("x")
	c.Submit(&Task{Label: "writer", Kind: "proj", Out: []Dep{x}})
	c.Submit(&Task{Label: "reader", Kind: "merge", In: []Dep{x}})
	c.Submit(&Task{Label: "rewriter", Kind: "proj", Out: []Dep{x}})
	d := c.Freeze().Dump(nil)

	var buf bytes.Buffer
	if err := d.Graph().WriteDOT(&buf, "test graph"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", `"writer"`, `"reader"`, `"rewriter"`, "style=solid", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
