// Package regex is a lightweight regular-expression engine in the spirit
// of SLRE, the baseline the paper uses for the QA service's
// pattern-matching hot component (Table 4). It supports the operators an
// IPA's question filters need — literals, '.', character classes with
// ranges and negation, escapes (\d \w \s and their negations), anchors,
// greedy quantifiers (* + ?), grouping and alternation with captures —
// using a recursive backtracking matcher.
//
// It deliberately does not depend on the standard library's regexp
// package: the engine itself is one of the benchmarked Sirius Suite
// kernels, so its inner loops must be our own code. Tests differentially
// validate it against stdlib regexp.
package regex

import (
	"errors"
	"fmt"
)

// node kinds.
type nodeKind int

const (
	kindLiteral nodeKind = iota
	kindAny
	kindClass
	kindGroup
	kindBegin
	kindEnd
	kindWordBoundary
	kindNotWordBoundary
)

// node is one parsed atom.
type node struct {
	kind  nodeKind
	lit   byte
	class *classNode
	group *groupNode
}

type classNode struct {
	negated bool
	ranges  [][2]byte
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

type groupNode struct {
	index int // capture index (1-based); 0 means non-capturing
	alts  [][]term
}

// term is an atom with a repetition range; max < 0 means unbounded.
type term struct {
	atom node
	min  int
	max  int
}

// Regexp is a compiled pattern.
type Regexp struct {
	pattern string
	seq     []term
	ngroups int
}

// String returns the source pattern.
func (re *Regexp) String() string { return re.pattern }

// Compile parses pattern into a Regexp.
func Compile(pattern string) (*Regexp, error) {
	p := &parser{src: pattern}
	seq, err := p.parseAlternation()
	if err != nil {
		return nil, fmt.Errorf("regex: %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("regex: %q: unexpected %q at %d", pattern, p.src[p.pos], p.pos)
	}
	return &Regexp{pattern: pattern, seq: seq, ngroups: p.ngroups}, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

type parser struct {
	src     string
	pos     int
	ngroups int
}

// parseAlternation parses alt|alt|... at the current level. A top-level
// alternation is wrapped into an anonymous group term.
func (p *parser) parseAlternation() ([]term, error) {
	first, err := p.parseSequence()
	if err != nil {
		return nil, err
	}
	if p.pos >= len(p.src) || p.src[p.pos] != '|' {
		return first, nil
	}
	alts := [][]term{first}
	for p.pos < len(p.src) && p.src[p.pos] == '|' {
		p.pos++
		seq, err := p.parseSequence()
		if err != nil {
			return nil, err
		}
		alts = append(alts, seq)
	}
	g := &groupNode{index: 0, alts: alts}
	return []term{{atom: node{kind: kindGroup, group: g}, min: 1, max: 1}}, nil
}

// parseSequence parses a run of quantified atoms up to '|', ')' or end.
func (p *parser) parseSequence() ([]term, error) {
	var seq []term
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '|' || c == ')' {
			break
		}
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		t := term{atom: atom, min: 1, max: 1}
		if p.pos < len(p.src) {
			switch p.src[p.pos] {
			case '*':
				t.min, t.max = 0, -1
				p.pos++
			case '+':
				t.min, t.max = 1, -1
				p.pos++
			case '?':
				t.min, t.max = 0, 1
				p.pos++
			}
			zeroWidth := atom.kind == kindBegin || atom.kind == kindEnd ||
				atom.kind == kindWordBoundary || atom.kind == kindNotWordBoundary
			if zeroWidth && (t.min != 1 || t.max != 1) {
				return nil, errors.New("quantifier on anchor")
			}
		}
		seq = append(seq, t)
	}
	return seq, nil
}

func (p *parser) parseAtom() (node, error) {
	c := p.src[p.pos]
	switch c {
	case '^':
		p.pos++
		return node{kind: kindBegin}, nil
	case '$':
		p.pos++
		return node{kind: kindEnd}, nil
	case '.':
		p.pos++
		return node{kind: kindAny}, nil
	case '(':
		p.pos++
		p.ngroups++
		idx := p.ngroups
		alts, err := p.parseGroupBody()
		if err != nil {
			return node{}, err
		}
		return node{kind: kindGroup, group: &groupNode{index: idx, alts: alts}}, nil
	case '[':
		p.pos++
		cls, err := p.parseClass()
		if err != nil {
			return node{}, err
		}
		return node{kind: kindClass, class: cls}, nil
	case '\\':
		p.pos++
		if p.pos >= len(p.src) {
			return node{}, errors.New("trailing backslash")
		}
		e := p.src[p.pos]
		p.pos++
		switch e {
		case 'A':
			return node{kind: kindBegin}, nil
		case 'z':
			return node{kind: kindEnd}, nil
		case 'b':
			return node{kind: kindWordBoundary}, nil
		case 'B':
			return node{kind: kindNotWordBoundary}, nil
		}
		if cls := escapeClass(e); cls != nil {
			return node{kind: kindClass, class: cls}, nil
		}
		lit, ok := escapeLiteral(e)
		if !ok {
			// Octal escapes, backreferences, hex and Unicode classes are
			// out of scope for an SLRE-class engine; rejecting beats
			// silently diverging from other engines' semantics.
			return node{}, fmt.Errorf("unsupported escape \\%c", e)
		}
		return node{kind: kindLiteral, lit: lit}, nil
	case '*', '+', '?':
		return node{}, fmt.Errorf("dangling quantifier %q", c)
	case ')':
		return node{}, errors.New("unmatched )")
	default:
		p.pos++
		return node{kind: kindLiteral, lit: c}, nil
	}
}

func (p *parser) parseGroupBody() ([][]term, error) {
	var alts [][]term
	for {
		seq, err := p.parseSequence()
		if err != nil {
			return nil, err
		}
		alts = append(alts, seq)
		if p.pos >= len(p.src) {
			return nil, errors.New("unterminated group")
		}
		switch p.src[p.pos] {
		case '|':
			p.pos++
		case ')':
			p.pos++
			return alts, nil
		}
	}
}

func escapeClass(e byte) *classNode {
	switch e {
	case 'd':
		return &classNode{ranges: [][2]byte{{'0', '9'}}}
	case 'D':
		return &classNode{negated: true, ranges: [][2]byte{{'0', '9'}}}
	case 'w':
		return &classNode{ranges: [][2]byte{{'a', 'z'}, {'A', 'Z'}, {'0', '9'}, {'_', '_'}}}
	case 'W':
		return &classNode{negated: true, ranges: [][2]byte{{'a', 'z'}, {'A', 'Z'}, {'0', '9'}, {'_', '_'}}}
	case 's':
		return &classNode{ranges: [][2]byte{{' ', ' '}, {'\t', '\t'}, {'\n', '\n'}, {'\r', '\r'}, {'\f', '\f'}, {'\v', '\v'}}}
	case 'S':
		return &classNode{negated: true, ranges: [][2]byte{{' ', ' '}, {'\t', '\t'}, {'\n', '\n'}, {'\r', '\r'}, {'\f', '\f'}, {'\v', '\v'}}}
	}
	return nil
}

// escapeLiteral resolves \<e> to a literal byte; ok is false for escapes
// with engine-specific meanings we do not support.
func escapeLiteral(e byte) (lit byte, ok bool) {
	switch e {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case 'a':
		return 0x07, true
	case 'f':
		return 0x0c, true
	case 'v':
		return 0x0b, true
	}
	if (e >= 'a' && e <= 'z') || (e >= 'A' && e <= 'Z') || (e >= '0' && e <= '9') {
		return 0, false
	}
	return e, true
}

func (p *parser) parseClass() (*classNode, error) {
	cls := &classNode{}
	if p.pos < len(p.src) && p.src[p.pos] == '^' {
		cls.negated = true
		p.pos++
	}
	first := true
	for {
		if p.pos >= len(p.src) {
			return nil, errors.New("unterminated class")
		}
		c := p.src[p.pos]
		if c == ']' && !first {
			p.pos++
			return cls, nil
		}
		first = false
		var lo byte
		if c == '\\' {
			p.pos++
			if p.pos >= len(p.src) {
				return nil, errors.New("trailing backslash in class")
			}
			e := p.src[p.pos]
			p.pos++
			if sub := escapeClass(e); sub != nil {
				if sub.negated {
					return nil, errors.New("negated escape inside class not supported")
				}
				cls.ranges = append(cls.ranges, sub.ranges...)
				continue
			}
			var ok bool
			lo, ok = escapeLiteral(e)
			if !ok {
				return nil, fmt.Errorf("unsupported escape \\%c in class", e)
			}
		} else {
			lo = c
			p.pos++
		}
		// Range?
		if p.pos+1 < len(p.src) && p.src[p.pos] == '-' && p.src[p.pos+1] != ']' {
			p.pos++
			hi := p.src[p.pos]
			if hi == '\\' {
				p.pos++
				if p.pos >= len(p.src) {
					return nil, errors.New("trailing backslash in class")
				}
				var ok bool
				hi, ok = escapeLiteral(p.src[p.pos])
				if !ok {
					return nil, fmt.Errorf("unsupported escape \\%c in class range", p.src[p.pos])
				}
			}
			p.pos++
			if hi < lo {
				return nil, fmt.Errorf("invalid range %c-%c", lo, hi)
			}
			cls.ranges = append(cls.ranges, [2]byte{lo, hi})
			continue
		}
		cls.ranges = append(cls.ranges, [2]byte{lo, lo})
	}
}

// --- matching -----------------------------------------------------------

type matcher struct {
	text string
	caps []int // 2*(ngroups+1), -1 for unset
}

// matchSeq matches seq[ti:] at pos and calls cont with the end position.
func (m *matcher) matchSeq(seq []term, ti int, pos int, cont func(int) bool) bool {
	if ti == len(seq) {
		return cont(pos)
	}
	t := seq[ti]
	return m.matchRepeat(&t, 0, pos, func(end int) bool {
		return m.matchSeq(seq, ti+1, end, cont)
	})
}

// matchRepeat greedily matches between t.min and t.max copies of t.atom.
func (m *matcher) matchRepeat(t *term, count, pos int, cont func(int) bool) bool {
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

func (m *matcher) matchAtom(n *node, pos int, cont func(int) bool) bool {
	switch n.kind {
	case kindBegin:
		return pos == 0 && cont(pos)
	case kindEnd:
		return pos == len(m.text) && cont(pos)
	case kindWordBoundary:
		return m.atWordBoundary(pos) && cont(pos)
	case kindNotWordBoundary:
		return !m.atWordBoundary(pos) && cont(pos)
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

// atWordBoundary reports whether pos sits between a word and a non-word
// character (or at a text edge adjacent to a word character).
func (m *matcher) atWordBoundary(pos int) bool {
	before := pos > 0 && isWordByte(m.text[pos-1])
	after := pos < len(m.text) && isWordByte(m.text[pos])
	return before != after
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// findFrom attempts a match starting exactly at start. Returns end, caps.
func (re *Regexp) findFrom(text string, start int) (int, []int, bool) {
	m := &matcher{text: text, caps: make([]int, 2*(re.ngroups+1))}
	for i := range m.caps {
		m.caps[i] = -1
	}
	var endPos int
	ok := re.matchSeqEntry(m, start, &endPos)
	if !ok {
		return 0, nil, false
	}
	m.caps[0], m.caps[1] = start, endPos
	return endPos, m.caps, true
}

func (re *Regexp) matchSeqEntry(m *matcher, start int, endPos *int) bool {
	return m.matchSeq(re.seq, 0, start, func(end int) bool {
		*endPos = end
		return true
	})
}

// MatchString reports whether the pattern matches anywhere in s.
func (re *Regexp) MatchString(s string) bool {
	for start := 0; start <= len(s); start++ {
		if _, _, ok := re.findFrom(s, start); ok {
			return true
		}
	}
	return false
}

// FindStringIndex returns the leftmost match's [start, end), or nil.
func (re *Regexp) FindStringIndex(s string) []int {
	for start := 0; start <= len(s); start++ {
		if end, _, ok := re.findFrom(s, start); ok {
			return []int{start, end}
		}
	}
	return nil
}

// FindStringSubmatch returns the leftmost match and its capture groups
// (empty string for unmatched groups), or nil if no match.
func (re *Regexp) FindStringSubmatch(s string) []string {
	for start := 0; start <= len(s); start++ {
		if _, caps, ok := re.findFrom(s, start); ok {
			out := make([]string, re.ngroups+1)
			for g := 0; g <= re.ngroups; g++ {
				if caps[2*g] >= 0 {
					out[g] = s[caps[2*g]:caps[2*g+1]]
				}
			}
			return out
		}
	}
	return nil
}
