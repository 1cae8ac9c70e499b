package prof

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bpar/internal/taskrt"
)

// keyName names the string keys of hand-built captures.
func keyName(d taskrt.Dep) string { return d.(string) }

func TestTemplateDumpRoundTrip(t *testing.T) {
	c := taskrt.NewCapture()
	c.Submit(&taskrt.Task{Label: "w", Kind: "proj", Out: []taskrt.Dep{"x"}, Flops: 10, WorkingSet: 64})
	c.Submit(&taskrt.Task{Label: "r", Kind: "lstm", In: []taskrt.Dep{"x"}, Out: []taskrt.Dep{"y"}})
	c.Submit(&taskrt.Task{Label: "m", Kind: "merge", In: []taskrt.Dep{"y"}, InOut: []taskrt.Dep{"x"}})
	tpl := c.Freeze()
	tpl.Name = "tiny"

	pd := DumpTemplates([]*taskrt.Template{tpl}, keyName)
	var buf bytes.Buffer
	if err := pd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, pd) {
		t.Fatalf("round trip changed the dump:\n got %+v\nwant %+v", back, pd)
	}
	d := &back.Templates[0]
	if d.Name != "tiny" || len(d.Nodes) != 3 || d.Nodes[0].Flops != 10 || d.Nodes[0].WorkingSet != 64 {
		t.Fatalf("dump mangled the template: %+v", d)
	}
	edges := 0
	for i := range d.Nodes {
		edges += len(d.Nodes[i].Preds)
	}
	if edges != tpl.Edges() || d.FullEdges != tpl.FullEdges() {
		t.Fatalf("edge counts lost: dump %d/%d, template %d/%d", edges, d.FullEdges, tpl.Edges(), tpl.FullEdges())
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
	c := taskrt.NewCapture()
	c.Submit(&taskrt.Task{Label: "w", Out: []taskrt.Dep{"x"}})
	d := DumpTemplates([]*taskrt.Template{c.Freeze()}, nil).Templates[0]
	if len(d.Keys) != 1 || !strings.HasPrefix(d.Keys[0], "key#") {
		t.Fatalf("nil namer keys = %v, want generated names", d.Keys)
	}
}

// TestReadRejectsBadInput feeds the one dump decoder malformed static dumps
// and a malformed profile.
func TestReadRejectsBadInput(t *testing.T) {
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
		{"profile-pred-order", `{"version": 1, "workers": 2, "templates": [{"name": "t", "replays": 1,
			"nodes": [{"label": "a", "sum_ns": 5, "last_end_ns": 5},
				{"label": "b", "preds": [1], "sum_ns": 5, "last_start_ns": 5, "last_end_ns": 10}]}]}`, "predecessor"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestTemplateDotRendersLabels checks a static dump renders through the
// shared DOT path with task labels and data/ordering edge styles, and that a
// profile, which records no keys, marks every edge data-carrying.
func TestTemplateDotRendersLabels(t *testing.T) {
	c := taskrt.NewCapture()
	c.Submit(&taskrt.Task{Label: "writer", Kind: "proj", Out: []taskrt.Dep{"x"}})
	c.Submit(&taskrt.Task{Label: "reader", Kind: "merge", In: []taskrt.Dep{"x"}})
	c.Submit(&taskrt.Task{Label: "rewriter", Kind: "proj", Out: []taskrt.Dep{"x"}})
	d := DumpTemplates([]*taskrt.Template{c.Freeze()}, nil).Templates[0]

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

	g := d.Graph()
	if got := fmt.Sprint(g.Nodes[1].DataPreds, g.Nodes[2].DataPreds); got != "[true] [false]" {
		t.Fatalf("static dump data flags %v, want RAW on reader and WAR on rewriter", got)
	}
	d.Keys = nil
	for i := range d.Nodes {
		d.Nodes[i].In, d.Nodes[i].Out, d.Nodes[i].InOut = nil, nil, nil
	}
	for _, n := range d.Graph().Nodes {
		for _, data := range n.DataPreds {
			if !data {
				t.Fatalf("keyless dump: node %q has an ordering edge, want every edge data-carrying", n.Label)
			}
		}
	}
}
