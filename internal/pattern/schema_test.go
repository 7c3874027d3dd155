package pattern

import (
	"fmt"
	"strings"
	"testing"
)

func genderRace() *Schema {
	return MustSchema(
		Attribute{Name: "gender", Values: []string{"male", "female"}},
		Attribute{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}},
	)
}

func threeBinary() *Schema {
	return MustSchema(
		Attribute{Name: "a", Values: []string{"0", "1"}},
		Attribute{Name: "b", Values: []string{"0", "1"}},
		Attribute{Name: "c", Values: []string{"0", "1"}},
	)
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{"empty", nil},
		{"no values", []Attribute{{Name: "g", Values: nil}}},
		{"one value", []Attribute{{Name: "g", Values: []string{"x"}}}},
		{"empty attr name", []Attribute{{Name: "", Values: []string{"a", "b"}}}},
		{"dup attr", []Attribute{
			{Name: "g", Values: []string{"a", "b"}},
			{Name: "g", Values: []string{"c", "d"}},
		}},
		{"dup value", []Attribute{{Name: "g", Values: []string{"a", "a"}}}},
		{"empty value", []Attribute{{Name: "g", Values: []string{"a", ""}}}},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.attrs...); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// binaryAttrs returns n binary attributes named a0, a1, ...
func binaryAttrs(n int) []Attribute {
	attrs := make([]Attribute, n)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	return attrs
}

// TestNewSchemaRejectsOverflowingCounts: a schema whose pattern
// universe does not fit in an int is refused instead of reporting
// wrapped counts (64 binary attributes once gave NumSubgroups() == 0
// and NumPatterns() == 8733086111712066817). The largest binary schema
// that fits, 39 attributes with 3^39 patterns, still builds.
func TestNewSchemaRejectsOverflowingCounts(t *testing.T) {
	for _, n := range []int{40, 64} {
		if s, err := NewSchema(binaryAttrs(n)...); err == nil {
			t.Errorf("%d binary attributes: NumSubgroups %d, NumPatterns %d, want an error", n, s.NumSubgroups(), s.NumPatterns())
		}
	}
	s, err := NewSchema(binaryAttrs(39)...)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for range 39 {
		want *= 3
	}
	if s.NumPatterns() != want || s.NumSubgroups() != 1<<39 {
		t.Errorf("39 binary attributes: NumPatterns %d, NumSubgroups %d; want %d and %d", s.NumPatterns(), s.NumSubgroups(), want, 1<<39)
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := genderRace()
	if got := s.NumAttrs(); got != 2 {
		t.Fatalf("NumAttrs = %d, want 2", got)
	}
	if got := s.NumSubgroups(); got != 8 {
		t.Errorf("NumSubgroups = %d, want 8", got)
	}
	if got := s.NumPatterns(); got != 15 {
		t.Errorf("NumPatterns = %d, want 15", got)
	}
	if got := s.AttrIndex("race"); got != 1 {
		t.Errorf("AttrIndex(race) = %d, want 1", got)
	}
	if got := s.AttrIndex("nope"); got != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", got)
	}
	ai, vi, err := s.ValueIndex("race", "asian")
	if err != nil || ai != 1 || vi != 3 {
		t.Errorf("ValueIndex(race,asian) = (%d,%d,%v), want (1,3,nil)", ai, vi, err)
	}
	if _, _, err := s.ValueIndex("race", "martian"); err == nil {
		t.Error("ValueIndex(race,martian): want error")
	}
	if _, _, err := s.ValueIndex("planet", "mars"); err == nil {
		t.Error("ValueIndex(planet,mars): want error")
	}
	cards := s.Cardinalities()
	if len(cards) != 2 || cards[0] != 2 || cards[1] != 4 {
		t.Errorf("Cardinalities = %v, want [2 4]", cards)
	}
	if !strings.Contains(s.String(), "gender{male,female}") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaValidLabels(t *testing.T) {
	s := genderRace()
	cases := []struct {
		labels []int
		want   bool
	}{
		{[]int{0, 0}, true},
		{[]int{1, 3}, true},
		{[]int{2, 0}, false},
		{[]int{0, 4}, false},
		{[]int{-1, 0}, false},
		{[]int{0}, false},
		{[]int{0, 0, 0}, false},
	}
	for _, tc := range cases {
		if got := s.ValidLabels(tc.labels); got != tc.want {
			t.Errorf("ValidLabels(%v) = %v, want %v", tc.labels, got, tc.want)
		}
	}
}

func TestBinarySchema(t *testing.T) {
	s := Binary("gender", "male", "female")
	if s.NumAttrs() != 1 || s.Attr(0).Cardinality() != 2 {
		t.Fatalf("Binary schema malformed: %v", s)
	}
	if s.NumSubgroups() != 2 {
		t.Errorf("NumSubgroups = %d, want 2", s.NumSubgroups())
	}
}

func TestSchemaAttrsIsCopy(t *testing.T) {
	s := genderRace()
	attrs := s.Attrs()
	attrs[0].Name = "mutated"
	if s.Attr(0).Name != "gender" {
		t.Error("Attrs() must return a copy")
	}
}
