// Package regex is a lightweight regular-expression engine in the spirit
// of SLRE, the baseline the paper uses for the QA service's
// pattern-matching hot component (Table 4). It supports the operators an
// IPA's question filters need — literals, '.', character classes with
// ranges and negation, escapes (\d \w \s and their negations), anchors,
// greedy quantifiers (* + ?), grouping and alternation with captures.
//
// Compile parses a pattern once and lowers the parse to a flat program of
// instructions: a byte, a class of bytes as a 256-bit set, any byte, a
// split into a preferred and a fallback branch, a capture save, an
// assertion and a match. A match runs that program with a backtracker in
// the manner of RE2's BitState: one explicit stack of pending branches
// and capture restores, and a visited bitmap over (instruction, position)
// that is never cleared between start positions, so a state that failed
// is never explored again and the work is bounded by instructions ×
// positions, whatever the pattern. Branches are tried in SLRE's order —
// greedy quantifiers, alternatives left to right — so the match and its
// captures are the leftmost-first ones. A loop iteration that consumes
// nothing ends the loop, as the recursive matcher this engine replaced
// did; for that the state also counts the enclosing empty-capable loop
// iterations that have not consumed yet, and such an instruction owns one
// bitmap row per count. The stack, the bitmap and the captures live in
// one scratch per call, reused across every start position and pooled
// across calls, so a match allocates nothing but its result. Start
// positions are skipped when they cannot begin a match: a pattern led by
// ^ or \A tries position 0 only, and one that must consume a byte tries
// only positions holding a byte a match can begin with and leaving room
// for its shortest match.
//
// It deliberately does not depend on the standard library's regexp
// package: the engine itself is one of the benchmarked Sirius Suite
// kernels, so its inner loops must be our own code. Tests differentially
// validate it against the recursive matcher it replaced and against
// stdlib regexp.
package regex

import (
	"errors"
	"fmt"
	"sync"
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

// Regexp is a compiled pattern. It is read-only after Compile, so one
// Regexp serves concurrent matches.
type Regexp struct {
	pattern string
	ngroups int
	prog    []inst
	classes []byteSet
	start   int32 // entry instruction
	// nslots is the visited bitmap's row count: one row per instruction
	// per count of unconsumed loop iterations it can run under.
	nslots int
	// minLen is the shortest match's length; a text shorter than it, or
	// a start closer than it to the end, cannot match.
	minLen int
	// anchored: the pattern starts with ^, so only position 0 can start
	// a match.
	anchored bool
	// first holds the bytes a match can begin with; used when minLen > 0.
	first byteSet
}

// byteSet is a set of bytes, one bit each.
type byteSet [4]uint64

func (s *byteSet) has(b byte) bool { return s[b/64]&(1<<(b%64)) != 0 }
func (s *byteSet) add(b byte)      { s[b/64] |= 1 << (b % 64) }

// classSet is the set of bytes cls matches.
func classSet(cls *classNode) byteSet {
	var set byteSet
	for _, r := range cls.ranges {
		for b := int(r[0]); b <= int(r[1]); b++ {
			set.add(byte(b))
		}
	}
	if cls.negated {
		for i := range set {
			set[i] = ^set[i]
		}
	}
	return set
}

// String returns the source pattern.
func (re *Regexp) String() string { return re.pattern }

// parse parses pattern into its term sequence and capture-group count.
func parse(pattern string) ([]term, int, error) {
	p := &parser{src: pattern}
	seq, err := p.parseAlternation()
	if err != nil {
		return nil, 0, fmt.Errorf("regex: %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, 0, fmt.Errorf("regex: %q: unexpected %q at %d", pattern, p.src[p.pos], p.pos)
	}
	return seq, p.ngroups, nil
}

// Compile parses pattern and lowers it to a program.
func Compile(pattern string) (*Regexp, error) {
	seq, ngroups, err := parse(pattern)
	if err != nil {
		return nil, err
	}
	c := &compiler{prog: make([]inst, 0, len(pattern)+1)} // about one instruction a byte
	start := c.seq(seq, c.emit(inst{op: opMatch}))
	re := &Regexp{pattern: pattern, ngroups: ngroups, prog: c.prog, classes: c.classes,
		start: start, minLen: seqMinLen(seq), anchored: len(seq) > 0 && seq[0].atom.kind == kindBegin}
	firstBytes(seq, &re.first)
	// A row per count 0..depth: the slot field held the depth until now.
	for i := range re.prog {
		d := int(re.prog[i].slot)
		re.prog[i].slot = int32(re.nslots)
		re.nslots += d + 1
	}
	return re, nil
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
		// RE2's and Go's \s, [\t\n\f\r ]: vertical tab is not in it.
		return &classNode{ranges: [][2]byte{{' ', ' '}, {'\t', '\t'}, {'\n', '\n'}, {'\r', '\r'}, {'\f', '\f'}}}
	case 'S':
		return &classNode{negated: true, ranges: [][2]byte{{' ', ' '}, {'\t', '\t'}, {'\n', '\n'}, {'\r', '\r'}, {'\f', '\f'}}}
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

// seqMinLen is the length of the shortest text seq can match; an
// assertion counts as zero-width whether or not it could hold.
func seqMinLen(seq []term) int {
	n := 0
	for i := range seq {
		if seq[i].min > 0 {
			n += atomMinLen(&seq[i].atom)
		}
	}
	return n
}

func atomMinLen(n *node) int {
	switch n.kind {
	case kindLiteral, kindAny, kindClass:
		return 1
	case kindGroup:
		m := -1
		for _, alt := range n.group.alts {
			if l := seqMinLen(alt); m < 0 || l < m {
				m = l
			}
		}
		return m
	}
	return 0
}

// --- program ------------------------------------------------------------

type opcode uint8

const (
	opByte            opcode = iota // text[pos] == b
	opClass                         // classes[arg] holds text[pos]
	opAny                           // any byte but '\n'
	opSplit                         // try x; on failure, y
	opSave                          // caps[arg] = pos
	opMark                          // an iteration of an empty-capable loop begins
	opCheck                         // it ends: x (loop again) if it consumed, else y (exit)
	opBegin                         // pos == 0
	opEnd                           // pos == len(text)
	opWordBoundary                  // \b
	opNotWordBoundary               // \B
	opMatch
)

// inst is one instruction. x is the successor (the preferred branch of a
// split); y is a split's fallback and a check's exit.
type inst struct {
	op   opcode
	b    byte
	arg  int32
	x, y int32
	// slot is the instruction's first visited-bitmap row. While compiling
	// it holds the instruction's depth: how many empty-capable loop bodies
	// enclose it, and so the most unconsumed iterations it can run under.
	slot int32
}

// compiler lowers a parse into a program, back to front: each piece is
// emitted knowing the instruction it continues to, so no jumps are needed.
type compiler struct {
	prog    []inst
	classes []byteSet
	depth   int32
}

func (c *compiler) emit(in inst) int32 {
	in.slot = c.depth
	c.prog = append(c.prog, in)
	return int32(len(c.prog) - 1)
}

// seq emits seq followed by next and returns its entry.
func (c *compiler) seq(seq []term, next int32) int32 {
	for i := len(seq) - 1; i >= 0; i-- {
		next = c.term(&seq[i], next)
	}
	return next
}

// term emits a quantified atom. Quantifiers are greedy: a split prefers
// one more iteration. An unbounded loop whose body can match empty marks
// each iteration, and an iteration that consumed nothing leaves the loop
// instead of repeating, so the loop always terminates.
func (c *compiler) term(t *term, next int32) int32 {
	switch {
	case t.max == 1 && t.min == 1:
		return c.atom(&t.atom, next)
	case t.max == 1: // ?
		return c.emit(inst{op: opSplit, x: c.atom(&t.atom, next), y: next})
	}
	loop := c.emit(inst{op: opSplit, y: next})
	var body int32
	if atomMinLen(&t.atom) == 0 {
		c.depth++
		check := c.emit(inst{op: opCheck, x: loop, y: next})
		inner := c.atom(&t.atom, check)
		c.depth--
		body = c.emit(inst{op: opMark, x: inner})
	} else {
		body = c.atom(&t.atom, loop)
	}
	c.prog[loop].x = body
	if t.min == 0 {
		return loop
	}
	return body
}

func (c *compiler) atom(n *node, next int32) int32 {
	switch n.kind {
	case kindLiteral:
		return c.emit(inst{op: opByte, b: n.lit, x: next})
	case kindAny:
		return c.emit(inst{op: opAny, x: next})
	case kindClass:
		c.classes = append(c.classes, classSet(n.class))
		return c.emit(inst{op: opClass, arg: int32(len(c.classes) - 1), x: next})
	case kindBegin:
		return c.emit(inst{op: opBegin, x: next})
	case kindEnd:
		return c.emit(inst{op: opEnd, x: next})
	case kindWordBoundary:
		return c.emit(inst{op: opWordBoundary, x: next})
	case kindNotWordBoundary:
		return c.emit(inst{op: opNotWordBoundary, x: next})
	}
	// A group: its alternatives left to right, between its two saves.
	g := n.group
	end := next
	if g.index > 0 {
		end = c.emit(inst{op: opSave, arg: int32(2*g.index + 1), x: next})
	}
	entry := c.seq(g.alts[len(g.alts)-1], end)
	for i := len(g.alts) - 2; i >= 0; i-- {
		entry = c.emit(inst{op: opSplit, x: c.seq(g.alts[i], end), y: entry})
	}
	if g.index > 0 {
		entry = c.emit(inst{op: opSave, arg: int32(2 * g.index), x: entry})
	}
	return entry
}

// firstBytes adds to set the bytes a match of seq can begin with, and
// reports whether seq can match without consuming a byte. An assertion
// is assumed to hold, which only widens the set.
func firstBytes(seq []term, set *byteSet) (nullable bool) {
	for i := range seq {
		if !atomFirstBytes(&seq[i].atom, set) && seq[i].min > 0 {
			return false
		}
	}
	return true
}

func atomFirstBytes(n *node, set *byteSet) (nullable bool) {
	switch n.kind {
	case kindLiteral:
		set.add(n.lit)
	case kindAny:
		// Every byte but '\n', added to what is there: an earlier
		// alternative may have put '\n' in.
		nl := set.has('\n')
		for i := range set {
			set[i] = ^uint64(0)
		}
		if !nl {
			set[0] &^= 1 << '\n'
		}
	case kindClass:
		for i, w := range classSet(n.class) {
			set[i] |= w
		}
	case kindGroup:
		for _, alt := range n.group.alts {
			if firstBytes(alt, set) {
				nullable = true
			}
		}
		return nullable
	default: // an assertion
		return true
	}
	return false
}

// --- matching -------------------------------------------------------------

// job is a pending branch (pc, k, pos), or, when k < 0, the capture
// restore caps[pc] = pos that undoes a save on backtracking. k counts the
// innermost enclosing empty-capable loop iterations that have consumed
// nothing yet; it is part of the state because it decides each opCheck.
type job struct {
	pc  int32
	k   int32
	pos int
}

// scratch is one match call's working memory: the backtrack stack, the
// visited bitmap (nslots rows of len(text)+1 bits) and the capture slots.
// A scratch made on one P reaches others through the pool, so it and its
// arrays are sized in whole 64-byte lines: two scratches sharing a line
// would make concurrent matches contend for it.
type scratch struct {
	stack   []job
	visited []uint64
	width   int
	caps    []int
	_       [48]byte // to 128 bytes
}

// lineWords rounds n up to whole 64-byte lines of 8-byte words.
func lineWords(n int) int { return (n + 7) &^ 7 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a pooled scratch sized for a match of re over text
// that records ncap capture slots, with a clear bitmap and unset captures.
func (re *Regexp) getScratch(text string, ncap int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.width = len(text) + 1
	words := (re.nslots*s.width + 63) / 64
	if cap(s.visited) < words {
		s.visited = make([]uint64, words, lineWords(words))
	} else {
		s.visited = s.visited[:words]
		clear(s.visited)
	}
	if s.stack == nil {
		s.stack = make([]job, 0, 64) // 16 lines; append keeps whole lines
	}
	if cap(s.caps) < ncap {
		s.caps = make([]int, ncap, lineWords(ncap))
	}
	s.caps = s.caps[:ncap]
	for i := range s.caps {
		s.caps[i] = -1
	}
	return s
}

// find reports whether re matches text, trying start positions left to
// right; on a match s.caps holds the leftmost match's captures.
func (re *Regexp) find(s *scratch, text string) bool {
	last := len(text) - re.minLen
	if re.anchored {
		last = min(last, 0)
	}
	for start := 0; start <= last; start++ {
		if re.minLen > 0 {
			for start <= last && !re.first.has(text[start]) {
				start++
			}
			if start > last {
				return false
			}
		}
		if re.try(s, text, start) {
			return true
		}
	}
	return false
}

// try runs the program from start. Each (instruction, k, position) state
// is explored at most once per call: a state seen before either failed
// already or, at an earlier start, failed from there, and no state's
// outcome depends on the captures.
func (re *Regexp) try(s *scratch, text string, start int) bool {
	if len(s.caps) > 0 {
		s.caps[0] = start
	}
	prog, visited, width := re.prog, s.visited, uint(s.width)
	stack := append(s.stack[:0], job{pc: re.start, pos: start})
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if j.k < 0 {
			s.caps[j.pc] = j.pos
			continue
		}
		pc, k, pos := j.pc, j.k, j.pos
	run:
		for {
			in := &prog[pc]
			bit := uint(in.slot+k)*width + uint(pos)
			if visited[bit/64]&(1<<(bit%64)) != 0 {
				break
			}
			visited[bit/64] |= 1 << (bit % 64)
			switch in.op {
			case opByte:
				if pos == len(text) || text[pos] != in.b {
					break run
				}
				pos, k = pos+1, 0
			case opClass:
				if pos == len(text) || !re.classes[in.arg].has(text[pos]) {
					break run
				}
				pos, k = pos+1, 0
			case opAny:
				if pos == len(text) || text[pos] == '\n' {
					break run
				}
				pos, k = pos+1, 0
			case opSplit:
				stack = append(stack, job{pc: in.y, k: k, pos: pos})
			case opSave:
				if int(in.arg) < len(s.caps) {
					stack = append(stack, job{pc: in.arg, k: -1, pos: s.caps[in.arg]})
					s.caps[in.arg] = pos
				}
			case opMark:
				k++
			case opCheck:
				if k > 0 {
					pc, k = in.y, k-1
					continue
				}
			case opBegin:
				if pos != 0 {
					break run
				}
			case opEnd:
				if pos != len(text) {
					break run
				}
			case opWordBoundary:
				if !atWordBoundary(text, pos) {
					break run
				}
			case opNotWordBoundary:
				if atWordBoundary(text, pos) {
					break run
				}
			case opMatch:
				if len(s.caps) > 1 {
					s.caps[1] = pos
				}
				s.stack = stack
				return true
			}
			pc = in.x
		}
	}
	s.stack = stack
	return false
}

// atWordBoundary reports whether pos sits between a word and a non-word
// character (or at a text edge adjacent to a word character).
func atWordBoundary(text string, pos int) bool {
	before := pos > 0 && isWordByte(text[pos-1])
	after := pos < len(text) && isWordByte(text[pos])
	return before != after
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// match runs re over text recording ncap capture slots. It returns the
// pooled scratch holding them, or nil when there is no match.
func (re *Regexp) match(text string, ncap int) *scratch {
	if len(text) < re.minLen {
		return nil
	}
	s := re.getScratch(text, ncap)
	if re.find(s, text) {
		return s
	}
	scratchPool.Put(s)
	return nil
}

// MatchString reports whether the pattern matches anywhere in s.
func (re *Regexp) MatchString(s string) bool {
	sc := re.match(s, 0)
	if sc == nil {
		return false
	}
	scratchPool.Put(sc)
	return true
}

// FindStringIndex returns the leftmost match's [start, end), or nil.
func (re *Regexp) FindStringIndex(s string) []int {
	sc := re.match(s, 2)
	if sc == nil {
		return nil
	}
	loc := []int{sc.caps[0], sc.caps[1]}
	scratchPool.Put(sc)
	return loc
}

// FindStringSubmatch returns the leftmost match and its capture groups
// (empty string for unmatched groups), or nil if no match.
func (re *Regexp) FindStringSubmatch(s string) []string {
	sc := re.match(s, 2*(re.ngroups+1))
	if sc == nil {
		return nil
	}
	out := make([]string, re.ngroups+1)
	for g := range out {
		if sc.caps[2*g] >= 0 {
			out[g] = s[sc.caps[2*g]:sc.caps[2*g+1]]
		}
	}
	scratchPool.Put(sc)
	return out
}
