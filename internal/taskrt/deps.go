package taskrt

// depEntry is the state of one dependency key: its last writer and the
// readers since that write.
type depEntry[N comparable] struct {
	lastWriter N
	readers    []N
}

// depTable derives task dependency edges from In/InOut/Out annotations with
// OmpSs's one rule: a task depends on the key's last writer, and a task that
// writes the key also depends on every reader since that write. It is the
// only RAW/WAR/WAW deriver in the package: Runtime keys it by *node for
// Submit, Capture by submission index for templates and graphs.
// Not safe for concurrent use; Runtime touches it only under submitMu.
type depTable[N comparable] struct {
	none N // "no writer yet": nil for *node, -1 for submission indices
	m    map[Dep]*depEntry[N]
}

func newDepTable[N comparable](none N) depTable[N] {
	return depTable[N]{none: none, m: make(map[Dep]*depEntry[N])}
}

func (d *depTable[N]) entry(k Dep) *depEntry[N] {
	e := d.m[k]
	if e == nil {
		e = &depEntry[N]{lastWriter: d.none}
		d.m[k] = e
	}
	return e
}

// reset forgets every key, as a fresh table would.
func (d *depTable[N]) reset() { d.m = make(map[Dep]*depEntry[N]) }

// derive registers task t, whose handle is self, walking In, InOut and Out
// in that order, and reports each distinct predecessor once to pred, in
// discovery order. data is the flag of the first edge found from p: true
// for RAW (p last wrote a key t reads), false for WAR/WAW ordering edges.
func (d *depTable[N]) derive(t *Task, self N, pred func(p N, data bool)) {
	// seen dedupes predecessors reached through several keys. Allocated
	// lazily: dependency-free tasks never pay for it.
	var seen map[N]bool
	add := func(p N, data bool) {
		if p == d.none || p == self || seen[p] {
			return
		}
		if seen == nil {
			seen = make(map[N]bool)
		}
		seen[p] = true
		pred(p, data)
	}
	for _, k := range t.In {
		e := d.entry(k)
		add(e.lastWriter, true) // RAW
		e.readers = append(e.readers, self)
	}
	for i, keys := range [2][]Dep{t.InOut, t.Out} {
		for _, k := range keys {
			e := d.entry(k)
			add(e.lastWriter, i == 0) // InOut: RAW (and WAW); Out: WAW
			for _, rd := range e.readers {
				add(rd, false) // WAR
			}
			e.lastWriter = self
			e.readers = e.readers[:0]
		}
	}
}
