package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternConstructionAndParse(t *testing.T) {
	s := genderRace()
	p := MustPattern(s, Wildcard, 3)
	if p.String() != "X3" {
		t.Errorf("String = %q, want X3", p.String())
	}
	q, err := Parse(s, "X3")
	if err != nil || !q.Equal(p) {
		t.Errorf("Parse(X3) = %v, %v", q, err)
	}
	if _, err := Parse(s, "X9"); err == nil {
		t.Error("Parse(X9): want range error")
	}
	if _, err := Parse(s, "XXX"); err == nil {
		t.Error("Parse(XXX): want arity error")
	}
	if _, err := Parse(s, "X-3"); err != nil {
		t.Errorf("Parse(X-3): %v", err)
	}
	if _, err := Parse(s, "Xq"); err == nil {
		t.Error("Parse(Xq): want parse error")
	}
	if _, err := NewPattern(s, 0); err == nil {
		t.Error("NewPattern with 1 slot: want error")
	}
	if _, err := NewPattern(s, 0, 7); err == nil {
		t.Error("NewPattern out of range: want error")
	}
}

func TestPatternLevelAndMatch(t *testing.T) {
	s := genderRace()
	all := All(s)
	if all.Level() != 0 || all.FullySpecified() {
		t.Errorf("All: level=%d fully=%v", all.Level(), all.FullySpecified())
	}
	if !all.Matches([]int{1, 2}) {
		t.Error("All must match everything")
	}
	p := MustPattern(s, 1, Wildcard) // female-X
	if p.Level() != 1 {
		t.Errorf("level = %d, want 1", p.Level())
	}
	if !p.Matches([]int{1, 0}) || p.Matches([]int{0, 0}) {
		t.Error("female-X match wrong")
	}
	fp := MustPattern(s, 1, 3) // female-asian
	if !fp.FullySpecified() {
		t.Error("female-asian should be fully specified")
	}
	if p.Matches([]int{1}) {
		t.Error("wrong arity must not match")
	}
}

func TestCovers(t *testing.T) {
	s := genderRace()
	all := All(s)
	fem := MustPattern(s, 1, Wildcard)
	femAsian := MustPattern(s, 1, 3)
	maleAsian := MustPattern(s, 0, 3)
	if !all.Covers(fem) || !all.Covers(femAsian) || !fem.Covers(femAsian) {
		t.Error("generality ordering broken")
	}
	if fem.Covers(maleAsian) || femAsian.Covers(fem) {
		t.Error("Covers must not hold")
	}
	if !femAsian.Covers(femAsian) {
		t.Error("Covers must be reflexive")
	}
}

func TestParentsChildren(t *testing.T) {
	s := genderRace()
	femAsian := MustPattern(s, 1, 3)
	parents := femAsian.Parents()
	if len(parents) != 2 {
		t.Fatalf("parents = %v, want 2", parents)
	}
	// Every parent must cover the child and sit exactly one level up.
	for _, par := range parents {
		if !par.Covers(femAsian) {
			t.Errorf("parent %v does not cover child", par)
		}
		if par.Level() != femAsian.Level()-1 {
			t.Errorf("parent %v level = %d", par, par.Level())
		}
	}
	if len(All(s).Parents()) != 0 {
		t.Error("root has no parents")
	}

	children := All(s).Children(s)
	if len(children) != 2+4 {
		t.Fatalf("children of root = %d, want 6", len(children))
	}
	if got := len(femAsian.Children(s)); got != 0 {
		t.Errorf("fully-specified pattern has %d children, want 0", got)
	}
}

func TestChildrenAlongPartition(t *testing.T) {
	s := genderRace()
	p := All(s)
	kids := p.ChildrenAlong(s, 1)
	if len(kids) != 4 {
		t.Fatalf("ChildrenAlong(race) = %d patterns, want 4", len(kids))
	}
	// Children along one attribute partition matching labels.
	for g := 0; g < 2; g++ {
		for r := 0; r < 4; r++ {
			matches := 0
			for _, k := range kids {
				if k.Matches([]int{g, r}) {
					matches++
				}
			}
			if matches != 1 {
				t.Errorf("labels (%d,%d) matched %d children, want exactly 1", g, r, matches)
			}
		}
	}
	spec := MustPattern(s, 1, 3)
	if spec.ChildrenAlong(s, 0) != nil {
		t.Error("ChildrenAlong on specified attr must be nil")
	}
}

func TestParentChildDuality(t *testing.T) {
	// Property: q is a child of p <=> p is a parent of q.
	s := threeBinary()
	for _, p := range Universe(s) {
		for _, q := range p.Children(s) {
			found := false
			for _, par := range q.Parents() {
				if par.Equal(p) {
					found = true
				}
			}
			if !found {
				t.Fatalf("child %v of %v does not list it as parent", q, p)
			}
		}
	}
}

func TestPatternStringForms(t *testing.T) {
	wide := MustSchema(Attribute{Name: "n", Values: make11()}, Attribute{Name: "m", Values: []string{"a", "b"}})
	p := MustPattern(wide, 10, Wildcard)
	if p.String() != "10-X" {
		t.Errorf("wide String = %q, want 10-X", p.String())
	}
	rt, err := Parse(wide, p.String())
	if err != nil || !rt.Equal(p) {
		t.Errorf("round-trip failed: %v %v", rt, err)
	}
	s := genderRace()
	f := MustPattern(s, 1, Wildcard).Format(s)
	if f != "gender=female AND race=X" {
		t.Errorf("Format = %q", f)
	}
	g := GroupOf("female", MustPattern(s, 1, Wildcard))
	if g.Format(s) != "gender=female AND race=X" {
		t.Errorf("group Format = %q", g.Format(s))
	}
}

func make11() []string {
	out := make([]string, 11)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func TestSubgroupIndexRoundTrip(t *testing.T) {
	s := genderRace()
	subs := Subgroups(s)
	if len(subs) != 8 {
		t.Fatalf("Subgroups = %d, want 8", len(subs))
	}
	for i, p := range subs {
		if !p.FullySpecified() {
			t.Errorf("subgroup %v not fully specified", p)
		}
		if got := SubgroupIndex(s, p); got != i {
			t.Errorf("SubgroupIndex(%v) = %d, want %d", p, got, i)
		}
	}
	if got := SubgroupIndex(s, All(s)); got != -1 {
		t.Errorf("SubgroupIndex(wildcard) = %d, want -1", got)
	}
}

// A valid label vector converts to its subgroup index in place:
// pattern.Point would copy it, which datasets indexing every object
// cannot afford.
func TestSubgroupIndexDoesNotAllocate(t *testing.T) {
	s := genderRace()
	labels := []int{1, 3}
	allocs := testing.AllocsPerRun(100, func() {
		if !s.ValidLabels(labels) || SubgroupIndex(s, Pattern(labels)) != 7 {
			t.Fatal("labels {1, 3} are not subgroup 7")
		}
	})
	if allocs != 0 {
		t.Errorf("ValidLabels and SubgroupIndex allocate %v times per call", allocs)
	}
}

func TestSubgroupIndexRoundTripQuick(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "a", Values: []string{"0", "1", "2"}},
		Attribute{Name: "b", Values: []string{"0", "1"}},
		Attribute{Name: "c", Values: []string{"0", "1", "2", "3", "4"}},
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := rng.Intn(s.NumSubgroups())
		return SubgroupIndex(s, SubgroupAt(s, idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniverse(t *testing.T) {
	s := threeBinary()
	u := Universe(s)
	if len(u) != 27 {
		t.Fatalf("universe size = %d, want 27", len(u))
	}
	seen := map[string]bool{}
	for _, p := range u {
		if seen[p.Key()] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p.Key()] = true
	}
	byLevel := UniverseByLevel(s)
	wantSizes := []int{1, 6, 12, 8}
	for l, want := range wantSizes {
		if len(byLevel[l]) != want {
			t.Errorf("level %d size = %d, want %d", l, len(byLevel[l]), want)
		}
	}
}

func TestGroupMatching(t *testing.T) {
	s := genderRace()
	fem := GroupOf("female", MustPattern(s, 1, Wildcard))
	asian := GroupOf("asian", MustPattern(s, Wildcard, 3))
	super := SuperGroup(fem, asian)
	if !super.IsSuper() || fem.IsSuper() {
		t.Error("IsSuper wrong")
	}
	if super.Name != "female|asian" {
		t.Errorf("super name = %q", super.Name)
	}
	if !super.Matches([]int{1, 0}) || !super.Matches([]int{0, 3}) {
		t.Error("super must match either member")
	}
	if super.Matches([]int{0, 0}) {
		t.Error("super must not match white male")
	}
	unnamed := Group{Members: []Pattern{MustPattern(s, 1, Wildcard)}}
	if unnamed.String() != "1X" {
		t.Errorf("unnamed String = %q", unnamed.String())
	}
}

func TestGroupsForAttribute(t *testing.T) {
	s := genderRace()
	gs := GroupsForAttribute(s, 1)
	if len(gs) != 4 {
		t.Fatalf("groups = %d, want 4", len(gs))
	}
	if gs[3].Name != "race=asian" {
		t.Errorf("name = %q", gs[3].Name)
	}
	// Each label matches exactly one group.
	for g := 0; g < 2; g++ {
		for r := 0; r < 4; r++ {
			n := 0
			for _, grp := range gs {
				if grp.Matches([]int{g, r}) {
					n++
				}
			}
			if n != 1 {
				t.Errorf("labels (%d,%d) matched %d groups", g, r, n)
			}
		}
	}
}

func TestSubgroupGroups(t *testing.T) {
	s := genderRace()
	gs := SubgroupGroups(s)
	if len(gs) != 8 {
		t.Fatalf("subgroup groups = %d, want 8", len(gs))
	}
	if gs[7].Name != "female-asian" {
		t.Errorf("last subgroup name = %q", gs[7].Name)
	}
}
