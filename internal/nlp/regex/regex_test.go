package regex

import (
	"math/rand"
	stdregexp "regexp"
	"testing"
)

func TestBasicMatching(t *testing.T) {
	cases := []struct {
		pattern, text string
		want          bool
	}{
		{"abc", "abc", true},
		{"abc", "xabcy", true},
		{"abc", "abx", false},
		{"a.c", "abc", true},
		{"a.c", "a\nc", false}, // '.' does not match newline
		{"^abc", "abc", true},
		{"^abc", "xabc", false},
		{"abc$", "abc", true},
		{"abc$", "abcd", false},
		{"^abc$", "abc", true},
		{"a*", "", true},
		{"a+", "", false},
		{"a+", "aaa", true},
		{"ab?c", "ac", true},
		{"ab?c", "abc", true},
		{"ab?c", "abbc", false},
		{"[abc]+", "cab", true},
		{"[^abc]", "abc", false},
		{"[^abc]", "abcd", true},
		{"[a-z]+", "hello", true},
		{"[a-z]+", "HELLO", false},
		{"[0-9]{1}", "", false}, // '{' is a literal; no digit+brace here
		{`\d+`, "year 1984", true},
		{`\d+`, "no digits", false},
		{`\w+`, "_id9", true},
		{`\W`, "a b", true},
		{`\s`, "a b", true},
		{`\S+`, "   ", false},
		{`\D+`, "123", false},
		{"(ab)+", "ababab", true},
		{"a|b", "b", true},
		{"cat|dog", "hotdog", true},
		{"cat|dog", "bird", false},
		{"(cat|dog)s", "dogs", true},
		{`\.`, "a.b", true},
		{`\.`, "ab", false},
		{`a\+b`, "a+b", true},
		{"x(y|z)*w", "xw", true},
		{"x(y|z)*w", "xyzyzw", true},
		{"[]a]", "]", true}, // ']' first in class is literal
		{`[\d-]`, "-", true},
		{`wh(at|ere|o)`, "where is it", true},
	}
	for _, c := range cases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.pattern, err)
		}
		if got := re.MatchString(c.text); got != c.want {
			t.Errorf("MatchString(%q, %q) = %v, want %v", c.pattern, c.text, got, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{"*a", "+", "?x", "(ab", "a)", "[abc", `a\`, "a**", "[z-a]", "^*", `[a\`}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", p)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile("(")
}

func TestSubmatches(t *testing.T) {
	re := MustCompile(`(\d+)-(\d+)`)
	got := re.FindStringSubmatch("range 10-25 here")
	if got == nil || got[0] != "10-25" || got[1] != "10" || got[2] != "25" {
		t.Fatalf("submatches: %v", got)
	}
	if re.ngroups != 2 {
		t.Fatalf("ngroups = %d", re.ngroups)
	}
	// Unmatched optional group yields empty string.
	re2 := MustCompile(`a(b)?c`)
	got2 := re2.FindStringSubmatch("ac")
	if got2 == nil || got2[1] != "" {
		t.Fatalf("optional group: %v", got2)
	}
	if re.FindStringSubmatch("nothing") != nil {
		t.Fatal("expected nil for no match")
	}
}

func TestFindStringIndexLeftmost(t *testing.T) {
	re := MustCompile(`\d+`)
	idx := re.FindStringIndex("ab 12 cd 345")
	if idx == nil || idx[0] != 3 || idx[1] != 5 {
		t.Fatalf("index: %v", idx)
	}
	if re.FindStringIndex("none") != nil {
		t.Fatal("expected nil")
	}
}

func TestAlternationPrecedence(t *testing.T) {
	// Alternation binds looser than concatenation: ab|cd is (ab)|(cd).
	re := MustCompile("ab|cd")
	if !re.MatchString("cd") || !re.MatchString("ab") || re.MatchString("ad") {
		t.Fatal("alternation precedence broken")
	}
}

// TestDifferentialAgainstStdlib generates random patterns from the
// supported grammar and random texts, then compares boolean match results
// and full-match spans with the standard library.
func TestDifferentialAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	atoms := []string{"a", "b", "c", "d", ".", `\d`, `\w`, `\s`, "[ab]", "[^ab]", "[a-c]", "[0-9]"}
	quants := []string{"", "", "", "*", "+", "?"}
	genPattern := func() string {
		n := 1 + rng.Intn(5)
		p := ""
		if rng.Intn(4) == 0 {
			p += "^"
		}
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				// group with alternation
				p += "(" + atoms[rng.Intn(len(atoms))] + "|" + atoms[rng.Intn(len(atoms))] + ")" + quants[rng.Intn(len(quants))]
			} else {
				p += atoms[rng.Intn(len(atoms))] + quants[rng.Intn(len(quants))]
			}
		}
		if rng.Intn(4) == 0 {
			p += "$"
		}
		return p
	}
	chars := "abcd019 x"
	genText := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	for trial := 0; trial < 3000; trial++ {
		pat := genPattern()
		std, err := stdregexp.Compile(pat)
		if err != nil {
			continue // grammar corner stdlib rejects; skip
		}
		ours, err := Compile(pat)
		if err != nil {
			t.Fatalf("our Compile(%q) failed: %v", pat, err)
		}
		for i := 0; i < 5; i++ {
			text := genText()
			want := std.MatchString(text)
			got := ours.MatchString(text)
			if got != want {
				t.Fatalf("pattern %q text %q: got %v, stdlib %v", pat, text, got, want)
			}
			wantIdx := std.FindStringIndex(text)
			gotIdx := ours.FindStringIndex(text)
			if (wantIdx == nil) != (gotIdx == nil) {
				t.Fatalf("pattern %q text %q: index %v vs stdlib %v", pat, text, gotIdx, wantIdx)
			}
			if wantIdx != nil && wantIdx[0] != gotIdx[0] {
				t.Fatalf("pattern %q text %q: start %v vs stdlib %v", pat, text, gotIdx, wantIdx)
			}
		}
	}
}

func BenchmarkMatchQuestionPatterns(b *testing.B) {
	patterns := []*Regexp{
		MustCompile(`^(who|what|where|when|why|how)\s`),
		MustCompile(`\d+(th|st|nd|rd)?`),
		MustCompile(`[A-Z][a-z]+`),
		MustCompile(`(capital|president|author)`),
	}
	text := "who was elected 44th president of the United States"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, re := range patterns {
			re.MatchString(text)
		}
	}
}

func TestWordBoundaries(t *testing.T) {
	cases := []struct {
		pattern, text string
		want          bool
	}{
		{`\bcat\b`, "the cat sat", true},
		{`\bcat\b`, "concatenate", false},
		{`\bcat`, "catalog", true},
		{`cat\b`, "tomcat", true},
		{`\Bcat`, "tomcat", true},
		{`\Bcat`, "cat", false},
		{`\Acat`, "cat", true},
		{`\Acat`, "a cat", false},
		{`cat\z`, "the cat", true},
		{`cat\z`, "cats", false},
	}
	for _, c := range cases {
		re := MustCompile(c.pattern)
		if got := re.MatchString(c.text); got != c.want {
			t.Errorf("MatchString(%q, %q) = %v, want %v", c.pattern, c.text, got, c.want)
		}
	}
}

func TestUnsupportedEscapesRejected(t *testing.T) {
	for _, p := range []string{`\0`, `\1`, `\x41`, `\pL`, `\QaE`, `[\x41]`, `[a-\q]`, `\q`} {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", p)
		}
	}
	// Control-character escapes remain supported.
	for _, p := range []string{`\a`, `\f`, `\v`, `[\a\f\v]`} {
		if _, err := Compile(p); err != nil {
			t.Errorf("Compile(%q): %v", p, err)
		}
	}
}
