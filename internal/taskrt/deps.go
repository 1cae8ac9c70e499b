package taskrt

// depEntry is the state of one dependency key: its last writer and the
// readers since that write, as submission indices.
type depEntry struct {
	lastWriter int
	readers    []int
}

// depTable derives task dependency edges from In/InOut/Out annotations with
// OmpSs's one rule: a task depends on the key's last writer, and a task that
// writes the key also depends on every reader since that write. It is the
// package's only RAW/WAR/WAW deriver; Capture keys it by submission index,
// so templates and simulator graphs share one rule. Not safe for concurrent
// use.
type depTable struct {
	m map[Dep]*depEntry
}

func newDepTable() depTable {
	return depTable{m: make(map[Dep]*depEntry)}
}

func (d *depTable) entry(k Dep) *depEntry {
	e := d.m[k]
	if e == nil {
		e = &depEntry{lastWriter: -1}
		d.m[k] = e
	}
	return e
}

// derive registers task t, whose submission index is self, walking In,
// InOut and Out in that order, and reports each distinct predecessor once to
// pred, in discovery order. data is the flag of the first edge found from p:
// true for RAW (p last wrote a key t reads), false for WAR/WAW ordering
// edges.
func (d *depTable) derive(t *Task, self int, pred func(p int, data bool)) {
	// seen dedupes predecessors reached through several keys. Allocated
	// lazily: dependency-free tasks never pay for it.
	var seen map[int]bool
	add := func(p int, data bool) {
		if p < 0 || p == self || seen[p] {
			return
		}
		if seen == nil {
			seen = make(map[int]bool)
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
