package lint

import (
	"reflect"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:allow detrand", []string{"detrand"}},
		{"//lint:allow detrand,walltime", []string{"detrand", "walltime"}},
		{"//lint:allow floateq 0.5 is exactly representable", []string{"floateq"}},
		{"//lint:allow maporder,floateq reason with spaces", []string{"maporder", "floateq"}},
		{"//lint:allow\tfloateq tab separator", []string{"floateq"}},
		{"// lint:allow detrand", nil}, // space after slashes: not a directive
		{"//lint:allowdetrand", nil},   // no separator after keyword
		{"//lint:allow", nil},          // no analyzer named
		{"//lint:deny detrand", nil},   // unknown verb
		{"// regular comment", nil},    //
		{"//lint:allow ,", nil},        // empty list
		{"//lint:allow a,,b", []string{"a", "b"}},
	}
	for _, c := range cases {
		if got := parseAllow(c.text); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// TestDirectiveScope pins the two-line scope: a directive suppresses its
// own line and the line directly below, and nothing else.
func TestDirectiveScope(t *testing.T) {
	dir := writeFixture(t, `package fixture

func own(a, b float64) bool {
	return a == b //lint:allow floateq own line
}

func below(a, b float64) bool {
	//lint:allow floateq next line
	return a == b
}

func tooFar(a, b float64) bool {
	//lint:allow floateq two lines above is out of scope

	return a == b // want "floating-point"
}
`)
	problems, err := CheckFixture(NewLoader(), dir, NewFloatEq())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("directive scope fixture not clean: %q", problems)
	}
}

// TestDirectiveOtherAnalyzer: an allow for one analyzer must not silence
// another on the same line.
func TestDirectiveOtherAnalyzer(t *testing.T) {
	dir := writeFixture(t, `package fixture

func eq(a, b float64) bool {
	return a == b //lint:allow detrand wrong analyzer name
}
`)
	problems, err := CheckFixture(NewLoader(), dir, NewFloatEq())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 {
		t.Fatalf("want the diagnostic to survive a mismatched allow, got %q", problems)
	}
}
