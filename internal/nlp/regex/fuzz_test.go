package regex

import (
	stdregexp "regexp"
	"testing"
)

// FuzzCompile hardens the parser: arbitrary patterns must either fail to
// compile or produce an engine that matches without panicking or
// diverging. Run with `go test -fuzz=FuzzCompile ./internal/nlp/regex`;
// the seed corpus also runs under plain `go test`.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"", "a", "a*", "(a|b)+c?", `\d+\s\w`, "[a-z0-9_]+", "[^abc]*$",
		"^x(y|z)*w$", `\`, "(", ")", "[", "a**", "((((a))))", "[]a]",
		`a\+b\.c`, "x{2}", "|", "a||b", "[z-a]", `\Q\E`,
	}
	for _, s := range seeds {
		f.Add(s, "some input text 123")
	}
	f.Fuzz(func(t *testing.T, pattern, text string) {
		if len(pattern) > 64 || len(text) > 256 {
			return // bound backtracking cost
		}
		re, err := Compile(pattern)
		if err != nil {
			return
		}
		// Must not panic; result value is unconstrained.
		re.MatchString(text)
		re.FindStringSubmatch(text)
	})
}

// FuzzMatchAgainstStdlib cross-checks boolean match results on the
// supported pattern subset.
func FuzzMatchAgainstStdlib(f *testing.F) {
	f.Add(`\d+`, "abc 123")
	f.Add("^(a|b)c*$", "accc")
	f.Add("[a-f]+[0-9]?", "deadbeef9")
	f.Fuzz(func(t *testing.T, pattern, text string) {
		if len(pattern) > 32 || len(text) > 128 {
			return
		}
		// Restrict to bytes both engines treat identically (ASCII without
		// brace/backreference syntax differences).
		for i := 0; i < len(pattern); i++ {
			c := pattern[i]
			if c < 0x20 || c > 0x7e || c == '{' || c == '}' {
				return
			}
		}
		for i := 0; i < len(text); i++ {
			if text[i] > 0x7e {
				return
			}
		}
		ours, err := Compile(pattern)
		if err != nil {
			return
		}
		std, err := stdCompile(pattern)
		if err != nil {
			return
		}
		got := ours.MatchString(text)
		want := std.MatchString(text)
		if got != want {
			t.Fatalf("pattern %q text %q: ours %v stdlib %v", pattern, text, got, want)
		}
	})
}

// stdCompile wraps the standard library for the differential fuzz.
func stdCompile(pattern string) (*stdRegexp, error) {
	re, err := stdregexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return &stdRegexp{re}, nil
}

type stdRegexp struct{ re *stdregexp.Regexp }

func (s *stdRegexp) MatchString(t string) bool { return s.re.MatchString(t) }
