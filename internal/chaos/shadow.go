package chaos

import (
	"fmt"
	"sort"
	"strings"
)

// ObjState is the shadow model's view of one persistent object. Pads are
// summarized (length + byte sum) instead of stored, keeping shadow clones
// cheap while still catching any payload corruption the crypto layer missed.
type ObjState struct {
	Group  int64
	Val    int64
	PadLen int
	PadSum uint64
}

// State is a full-database shadow: collection name → object id → state.
type State map[string]map[int64]ObjState

// Clone deep-copies the state.
func (s State) Clone() State {
	c := make(State, len(s))
	for col, objs := range s {
		m := make(map[int64]ObjState, len(objs))
		for id, st := range objs {
			m[id] = st
		}
		c[col] = m
	}
	return c
}

// Digest renders the state canonically (collections and ids sorted), so two
// states are equal iff their digests are byte-identical.
func (s State) Digest() string {
	cols := make([]string, 0, len(s))
	for col := range s {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	var b strings.Builder
	for _, col := range cols {
		objs := s[col]
		ids := make([]int64, 0, len(objs))
		for id := range objs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(&b, "%s{", col)
		for _, id := range ids {
			st := objs[id]
			fmt.Fprintf(&b, "%d=(g%d v%d p%d s%d)", id, st.Group, st.Val, st.PadLen, st.PadSum)
		}
		b.WriteString("} ")
	}
	return b.String()
}

// Diff describes the first few differences between s (expected) and got,
// for invariant-failure diagnostics.
func (s State) Diff(got State) string {
	var diffs []string
	add := func(f string, args ...any) {
		if len(diffs) < 8 {
			diffs = append(diffs, fmt.Sprintf(f, args...))
		}
	}
	cols := make([]string, 0, len(s))
	for col := range s {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		want := s[col]
		have, ok := got[col]
		if !ok {
			add("collection %q missing (want %d objects)", col, len(want))
			continue
		}
		ids := make([]int64, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			w := want[id]
			g, ok := have[id]
			switch {
			case !ok:
				add("%s/%d missing (want %+v)", col, id, w)
			case g != w:
				add("%s/%d = %+v, want %+v", col, id, g, w)
			}
		}
		for id := range have {
			if _, ok := want[id]; !ok {
				add("%s/%d unexpected (%+v)", col, id, have[id])
			}
		}
	}
	for col := range got {
		if _, ok := s[col]; !ok {
			add("unexpected collection %q (%d objects)", col, len(got[col]))
		}
	}
	if len(diffs) == 0 {
		return "states differ only in digest rendering (harness bug)"
	}
	return strings.Join(diffs, "; ")
}

// OpKind classifies one shadow operation within a commit.
type OpKind int

const (
	// OpPut inserts or overwrites one object.
	OpPut OpKind = iota
	// OpDelete removes one object.
	OpDelete
	// OpCreateCol creates an empty collection.
	OpCreateCol
	// OpRemoveCol drops a collection and everything in it.
	OpRemoveCol
)

// Op is one state mutation inside a commit.
type Op struct {
	Kind OpKind
	Col  string
	ID   int64
	New  ObjState
}

func (s State) apply(op Op) {
	switch op.Kind {
	case OpPut:
		if s[op.Col] == nil {
			s[op.Col] = make(map[int64]ObjState)
		}
		s[op.Col][op.ID] = op.New
	case OpDelete:
		delete(s[op.Col], op.ID)
	case OpCreateCol:
		if s[op.Col] == nil {
			s[op.Col] = make(map[int64]ObjState)
		}
	case OpRemoveCol:
		delete(s, op.Col)
	}
}

// Commit is one transaction as the shadow model saw it.
type Commit struct {
	// Action is the harness action index that issued the commit (traces).
	Action int
	// Durable is the durability the commit was acknowledged with: requested
	// and not refused with ErrNotDurable.
	Durable bool
	// Acked reports whether Commit returned success to the caller. A
	// commit that failed because the store crashed under it is recorded
	// unacked: it may or may not have reached the log, and recovery may
	// legally surface either outcome.
	Acked bool
	Ops   []Op
}

// Shadow is the oracle's model of the database: a base state plus the
// commit log since the last point everything was known durable. The
// durability contract it encodes is the chunk store's (§3.2.2, group-commit
// rounds): after a crash, the surviving state is replay(base, commits[0..k])
// for some prefix k — commit order is log order, so a later commit can never
// survive without every earlier one — and the prefix must include every
// acknowledged durable commit. Acknowledged nondurable commits — which is
// what a durable commit that returned ErrNotDurable is — and a crashed-under
// unacked tail commit may fall either side of the cut.
type Shadow struct {
	base    State
	cur     State
	commits []Commit
}

// NewShadow returns an empty-database shadow.
func NewShadow() *Shadow {
	return &Shadow{base: State{}, cur: State{}}
}

// Cur returns the model of the current in-memory database state: base plus
// every acknowledged commit.
func (sh *Shadow) Cur() State { return sh.cur }

// Pending reports how many commits are in the uncollapsed log.
func (sh *Shadow) Pending() int { return len(sh.commits) }

// Record appends a commit to the log and, if it was acknowledged, applies
// it to the current-state model.
func (sh *Shadow) Record(c Commit) {
	sh.commits = append(sh.commits, c)
	if c.Acked {
		for _, op := range c.Ops {
			sh.cur.apply(op)
		}
	}
}

// lastAckedDurable returns the index of the newest acknowledged durable
// commit, or -1.
func (sh *Shadow) lastAckedDurable() int {
	for i := len(sh.commits) - 1; i >= 0; i-- {
		if sh.commits[i].Acked && sh.commits[i].Durable {
			return i
		}
	}
	return -1
}

// RecoveryCandidates enumerates every state a legal recovery may surface,
// smallest prefix first. Candidate i is replay(base, commits[0..minK+i]).
func (sh *Shadow) RecoveryCandidates() []State {
	minLen := sh.lastAckedDurable() + 1
	st := sh.base.Clone()
	for i := 0; i < minLen; i++ {
		for _, op := range sh.commits[i].Ops {
			st.apply(op)
		}
	}
	cands := []State{st.Clone()}
	for i := minLen; i < len(sh.commits); i++ {
		for _, op := range sh.commits[i].Ops {
			st.apply(op)
		}
		cands = append(cands, st.Clone())
	}
	return cands
}

// Collapse resets the shadow to a settled state: after a verified recovery
// (or a clean restart) the surviving state becomes the new base and the
// commit log is emptied.
func (sh *Shadow) Collapse(settled State) {
	sh.base = settled.Clone()
	sh.cur = settled.Clone()
	sh.commits = nil
}
