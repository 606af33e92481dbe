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
		{"//lint:allow walltime span timing is its purpose", []string{"walltime"}},
		{"//lint:allow maporder,walltime reason with spaces", []string{"maporder", "walltime"}},
		{"//lint:allow\twalltime tab separator", []string{"walltime"}},
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

import "math/rand"

func own() int {
	return rand.Intn(2) //lint:allow detrand own line
}

func below() int {
	//lint:allow detrand next line
	return rand.Intn(2)
}

func tooFar() int {
	//lint:allow detrand two lines above is out of scope

	return rand.Intn(2) // want "global math/rand"
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
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

import "math/rand"

func draw() int {
	return rand.Intn(2) //lint:allow walltime wrong analyzer name
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 {
		t.Fatalf("want the diagnostic to survive a mismatched allow, got %q", problems)
	}
}
