package regex

import (
	"fmt"
	"math/rand"
	stdregexp "regexp"
	"slices"
	"strings"
	"testing"
)

// --- the reference matcher ---------------------------------------------------

// refMatcher is the recursive continuation-closure matcher the compiled
// program replaced, kept as the oracle for its matches and captures. It
// walks the parse tree, building a closure at every step, and tries each
// start position afresh, so its work can grow exponentially.
type refMatcher struct {
	text string
	caps []int // 2*(ngroups+1), -1 for unset
}

// matchSeq matches seq[ti:] at pos and calls cont with the end position.
func (m *refMatcher) matchSeq(seq []term, ti int, pos int, cont func(int) bool) bool {
	if ti == len(seq) {
		return cont(pos)
	}
	t := seq[ti]
	return m.matchRepeat(&t, 0, pos, func(end int) bool {
		return m.matchSeq(seq, ti+1, end, cont)
	})
}

// matchRepeat greedily matches between t.min and t.max copies of t.atom.
func (m *refMatcher) matchRepeat(t *term, count, pos int, cont func(int) bool) bool {
	if t.max < 0 || count < t.max {
		if m.matchAtom(&t.atom, pos, func(end int) bool {
			if end == pos && t.max < 0 {
				// Unbounded repetition of a zero-width match cannot
				// advance; one more iteration satisfies any remaining
				// minimum, so stop repeating here (avoiding infinite
				// recursion) and continue if the count is now legal.
				if count+1 >= t.min {
					return cont(pos)
				}
				return false
			}
			return m.matchRepeat(t, count+1, end, cont)
		}) {
			return true
		}
	}
	if count >= t.min {
		return cont(pos)
	}
	return false
}

func (m *refMatcher) matchAtom(n *node, pos int, cont func(int) bool) bool {
	switch n.kind {
	case kindBegin:
		return pos == 0 && cont(pos)
	case kindEnd:
		return pos == len(m.text) && cont(pos)
	case kindWordBoundary:
		return atWordBoundary(m.text, pos) && cont(pos)
	case kindNotWordBoundary:
		return !atWordBoundary(m.text, pos) && cont(pos)
	case kindAny:
		return pos < len(m.text) && m.text[pos] != '\n' && cont(pos+1)
	case kindLiteral:
		return pos < len(m.text) && m.text[pos] == n.lit && cont(pos+1)
	case kindClass:
		return pos < len(m.text) && n.class.matches(m.text[pos]) && cont(pos+1)
	case kindGroup:
		g := n.group
		for _, alt := range g.alts {
			var saveS, saveE int
			if g.index > 0 {
				saveS, saveE = m.caps[2*g.index], m.caps[2*g.index+1]
			}
			ok := m.matchSeq(alt, 0, pos, func(end int) bool {
				if g.index > 0 {
					m.caps[2*g.index] = pos
					m.caps[2*g.index+1] = end
				}
				return cont(end)
			})
			if ok {
				return true
			}
			if g.index > 0 {
				m.caps[2*g.index], m.caps[2*g.index+1] = saveS, saveE
			}
		}
		return false
	}
	return false
}

func (c *classNode) matches(b byte) bool {
	in := false
	for _, r := range c.ranges {
		if b >= r[0] && b <= r[1] {
			in = true
			break
		}
	}
	return in != c.negated
}

// refMatch runs the reference matcher for the parsed pattern seq over
// text from every start position in turn and returns the leftmost
// match's capture slots (two per group, the whole match first, -1 where
// unset), or nil if there is no match.
func refMatch(seq []term, ngroups int, text string) []int {
	m := &refMatcher{text: text, caps: make([]int, 2*(ngroups+1))}
	end := -1
	found := func(e int) bool { end = e; return true }
	for start := 0; start <= len(text); start++ {
		for i := range m.caps {
			m.caps[i] = -1
		}
		if m.matchSeq(seq, 0, start, found) {
			m.caps[0], m.caps[1] = start, end
			return m.caps
		}
	}
	return nil
}

// refChecker parses re's pattern once for the reference matcher and
// returns a check of one text: it compares the capture slots and
// MatchString, FindStringIndex and FindStringSubmatch with refMatch and
// describes the first disagreement.
func refChecker(re *Regexp) func(text string) error {
	seq, ngroups, err := parse(re.pattern)
	if err != nil {
		panic(err)
	}
	return func(text string) error { return refDiff(re, refMatch(seq, ngroups, text), text) }
}

func refDiff(re *Regexp, want []int, text string) error {
	if got := re.MatchString(text); got != (want != nil) {
		return fmt.Errorf("%q on %q: MatchString %v, reference %v", re, text, got, want != nil)
	}
	var wantIdx []int
	var wantSub []string
	if want != nil {
		wantIdx = want[:2]
		wantSub = make([]string, re.ngroups+1)
		for g := range wantSub {
			if want[2*g] >= 0 {
				wantSub[g] = text[want[2*g]:want[2*g+1]]
			}
		}
	}
	var got []int
	if sc := re.match(text, 2*(re.ngroups+1)); sc != nil {
		got = slices.Clone(sc.caps)
		scratchPool.Put(sc)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%q on %q: capture slots %v, reference %v", re, text, got, want)
	}
	if got := re.FindStringIndex(text); !slices.Equal(got, wantIdx) {
		return fmt.Errorf("%q on %q: FindStringIndex %v, reference %v", re, text, got, wantIdx)
	}
	if got := re.FindStringSubmatch(text); !slices.Equal(got, wantSub) || (got == nil) != (wantSub == nil) {
		return fmt.Errorf("%q on %q: FindStringSubmatch %q, reference %q", re, text, got, wantSub)
	}
	return nil
}

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

// TestEmptyLoopsMatchReference runs nested stars and loops whose body can
// match empty — the cases where an iteration that consumes nothing must
// end the loop, as the reference matcher's zero-width repetition rule
// does — against refMatch, captures included. The reference rule is this
// package's own, so stdlib is no oracle here.
func TestEmptyLoopsMatchReference(t *testing.T) {
	fixed := []string{`(a*)*b`, `(a|)*c`, `x(y?)*z`, `(\w*\s?)*$`, `(a*)+`, `(|a)*`, `((a|)*b?)*c`,
		`(a?)+?`, `(a*|b)*(b)`, `(()|a)*`, `(\b|a)*`, `(^|a)+b`, `(a|b*)*\B`, `((a)|b)*`}
	rng := rand.New(rand.NewSource(7))
	atoms := []string{"a", "b", "c", ".", `\s`, `\w`, "[ab]", "", `\b`, "^", "$"}
	quants := []string{"", "*", "+", "?"}
	var gen func(depth int) string
	gen = func(depth int) string {
		n := 1 + rng.Intn(3)
		p := ""
		for i := 0; i < n; i++ {
			var a string
			if depth == 0 && rng.Intn(2) == 0 {
				a = "(" + gen(depth+1)
				if rng.Intn(2) == 0 {
					a += "|" + gen(depth+1)
				}
				a += ")"
			} else {
				a = atoms[rng.Intn(len(atoms))]
			}
			if a == "" || a == "^" || a == "$" || a == `\b` {
				p += a // quantifying an empty atom or an anchor is not valid
				continue
			}
			p += a + quants[rng.Intn(len(quants))]
		}
		return p
	}
	patterns := fixed
	for len(patterns) < 1500 {
		patterns = append(patterns, gen(0))
	}
	chars := "aabc x"
	for _, pat := range patterns {
		re, err := Compile(pat)
		if err != nil {
			continue
		}
		for i := 0; i < 8; i++ {
			b := make([]byte, rng.Intn(9))
			for j := range b {
				b[j] = chars[rng.Intn(len(chars))]
			}
			if err := refChecker(re)(string(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPathologicalPatternsBounded runs patterns whose ways of matching
// grow exponentially with the input, which the reference matcher tries one
// by one, on 4 096-byte inputs. The visited bitmap bounds the engine's work
// by instructions × positions, so each finishes at once; the results must
// equal refMatch's on an input short enough for the reference, and stdlib's
// on the full one.
func TestPathologicalPatternsBounded(t *testing.T) {
	for _, c := range []struct {
		pattern string
		text    func(n int) string // n bytes, none of which starts a match
	}{
		{`(a|a)*b`, func(n int) string { return strings.Repeat("a", n) }},
		{`(a*)*b`, func(n int) string { return strings.Repeat("a", n) }},
		{`(\w+\s?)*$`, func(n int) string { return strings.Repeat("a", n-1) + "!" }},
	} {
		re := MustCompile(c.pattern)
		if err := refChecker(re)(c.text(16)); err != nil {
			t.Fatal(err)
		}
		text := c.text(4096)
		std := stdregexp.MustCompile(c.pattern)
		if got, want := re.MatchString(text), std.MatchString(text); got != want {
			t.Errorf("%q on %d bytes: MatchString %v, stdlib %v", c.pattern, len(text), got, want)
		}
		if got, want := re.FindStringIndex(text), std.FindStringIndex(text); !slices.Equal(got, want) {
			t.Errorf("%q on %d bytes: FindStringIndex %v, stdlib %v", c.pattern, len(text), got, want)
		}
	}
}

// TestMatchAllocs pins the kernel's allocations per call: a match borrows
// its scratch from the pool, so MatchString allocates nothing and the
// Find calls only their results, on a 40-byte sentence and on a 4 KB one.
// The race detector's sync.Pool drops puts at random, so this runs only
// without it.
func TestMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under -race")
	}
	short := "the capital of italy was rome in 1871 ok"
	var b strings.Builder
	for b.Len() < 4096 {
		b.WriteString(short)
		b.WriteByte(' ')
	}
	long := b.String()[:4096]
	patterns := []*Regexp{
		MustCompile(`\d+`),
		MustCompile(`\w+ (is|was|are) \w+`),
		MustCompile(`(capital|president|author|founder|river|mountain|rating|close|open)`),
		MustCompile(`\w+ed`),
		MustCompile(`^the \w+`),
		MustCompile(`(\w+) is the capital of italy`),
		MustCompile(`(a|)*c`),
	}
	for _, text := range []string{short, long} {
		for _, re := range patterns {
			for _, c := range []struct {
				name string
				max  float64
				call func()
			}{
				{"MatchString", 0, func() { re.MatchString(text) }},
				{"FindStringIndex", 1, func() { re.FindStringIndex(text) }},
				{"FindStringSubmatch", 1, func() { re.FindStringSubmatch(text) }},
			} {
				if n := testing.AllocsPerRun(100, c.call); n > c.max {
					t.Errorf("%s(%q) on %d bytes: %v allocations a call, want at most %v", c.name, re, len(text), n, c.max)
				}
			}
		}
	}
}
