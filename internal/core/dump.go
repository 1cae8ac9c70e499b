package core

import (
	"fmt"
	"maps"
	"slices"

	"bpar/internal/prof"
	"bpar/internal/taskrt"
)

// keyNames maps every dependency key of this workspace to the human name
// the dependency sanitizer would use for it ("fwdSt L2 t17 mb0"), so that
// template dumps and graphlint diagnostics speak the same vocabulary as
// depcheck reports. Unlike the sanitizer registration it names every key
// grid — including kX, whose buffers are the caller's batch views — and it
// needs no live buffers.
func (w *workspace) keyNames(mbIdx int, into map[taskrt.Dep]string) {
	name := func(k taskrt.Dep, format string, args ...any) {
		into[k] = fmt.Sprintf(format, args...) + fmt.Sprintf(" mb%d", mbIdx)
	}
	for t, k := range w.kX {
		name(k, "x t%d", t)
	}
	for t, k := range w.kX32 {
		name(k, "x32 t%d", t)
	}
	for _, g := range w.keyGrids {
		for l, row := range *g.keys {
			for t, k := range row {
				name(k, "%s L%d t%d", g.name, l, t)
			}
		}
	}
	name(w.kFinalMerged, "finalMerged")
	name(w.kDFinalMerged, "dFinalMerged")
	for i := range w.dir {
		name(w.dir[i].kDFinalH, "dFinalH%s", dirSuffix[i])
		for l, k := range w.dir[i].kGrads {
			name(k, "grads%s L%d", dirSuffix[i], l)
		}
	}
	for s, k := range w.kProbs {
		name(k, "probs s%d", s)
	}
	for h, k := range w.kHeadGrads {
		name(k, "headGrads h%d", h)
	}
}

// DumpTemplates serializes every step template the engine currently has
// cached, with dependency keys named through the workspaces they belong to.
// The result feeds bpar-vet -graph: happens-before coverage, reduction
// verification, and shape lints over exactly the graphs replay executes.
// Like the step methods, it must not run concurrently with them.
func (e *Engine) DumpTemplates() *prof.ProfileData {
	names := make(map[taskrt.Dep]string)
	for _, wss := range e.wsByT {
		for i, ws := range wss {
			ws.keyNames(i, names)
		}
	}
	return prof.DumpTemplates(slices.Collect(maps.Values(e.tpls)), func(k taskrt.Dep) string { return names[k] })
}
