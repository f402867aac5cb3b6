package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// A leaf answers POST /v1/shard/search with one binary frame rather than
// JSON: decoding JSON by reflection cost the aggregator more than the
// leaves' search did. The frame is
//
//	version byte (wireVersion)
//	uvarint shard, shards, docs, total length
//	uvarint m (terms), then m uvarint document frequencies
//	uvarint n (postings), then per posting:
//	    uvarint global id, length, then m uvarint term frequencies
//	    uvarint title length, title bytes
//	    uvarint body length, body bytes
//
// Every uvarint is in its shortest form, so a frame is the one encoding of
// its Response. A leaf and a frontend speak one version: a frontend given
// a frame of another version counts that shard as failed.
const wireVersion = 1

// appendResponse appends r's frame to dst. Each posting carries one term
// frequency per DF entry, as Exec builds them; a shorter TF is sent with
// zeros, which Merge reads the same way.
func appendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, uint64(r.Shard))
	dst = binary.AppendUvarint(dst, uint64(r.Shards))
	dst = binary.AppendUvarint(dst, uint64(r.Docs))
	dst = binary.AppendUvarint(dst, uint64(r.TotalLen))
	dst = binary.AppendUvarint(dst, uint64(len(r.DF)))
	for _, df := range r.DF {
		dst = binary.AppendUvarint(dst, uint64(df))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Postings)))
	for i := range r.Postings {
		p := &r.Postings[i]
		dst = binary.AppendUvarint(dst, uint64(p.GlobalID))
		dst = binary.AppendUvarint(dst, uint64(p.Len))
		for j := range r.DF {
			tf := 0
			if j < len(p.TF) {
				tf = p.TF[j]
			}
			dst = binary.AppendUvarint(dst, uint64(tf))
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Title)))
		dst = append(dst, p.Title...)
		dst = binary.AppendUvarint(dst, uint64(len(p.Body)))
		dst = append(dst, p.Body...)
	}
	return dst
}

// DecodeResponse parses a leaf's response frame. Every title and body is a
// substring of one copy of the frame, and all term frequencies share one
// array, so a frame costs at most four allocations whatever it holds. Each
// count is bounded before anything is allocated for it: at most MaxTerms
// terms, Overfetch(MaxK) postings, and no string or list longer than the
// bytes left. A frame of another version, with a non-shortest uvarint or
// with bytes after its last posting is rejected.
func DecodeResponse(frame []byte) (Response, error) {
	if len(frame) == 0 {
		return Response{}, errors.New("shard frame: empty")
	}
	if frame[0] != wireVersion {
		return Response{}, fmt.Errorf("shard frame: version %d, want %d", frame[0], wireVersion)
	}
	d := frameReader{b: frame, off: 1}
	var r Response
	r.Shard = d.uvarint()
	r.Shards = d.uvarint()
	r.Docs = d.uvarint()
	r.TotalLen = d.uvarint()
	m := d.count(MaxTerms, 1, "terms")
	if d.err != nil {
		return Response{}, d.err
	}
	r.DF = make([]int, m)
	for i := range r.DF {
		r.DF[i] = d.uvarint()
	}
	// A posting takes at least one byte for each of its id, length, term
	// frequencies and two string lengths.
	n := d.count(Overfetch(MaxK), m+4, "postings")
	if d.err != nil {
		return Response{}, d.err
	}
	text := string(frame)
	r.Postings = make([]Posting, n)
	tfs := make([]int, n*m)
	for i := range r.Postings {
		p := &r.Postings[i]
		p.GlobalID = d.uvarint()
		p.Len = d.uvarint()
		p.TF = tfs[i*m : (i+1)*m : (i+1)*m]
		for j := range p.TF {
			p.TF[j] = d.uvarint()
		}
		p.Title = d.str(text)
		p.Body = d.str(text)
	}
	if d.err == nil && d.off != len(frame) {
		d.err = fmt.Errorf("shard frame: %d bytes after the last posting", len(frame)-d.off)
	}
	if d.err != nil {
		return Response{}, d.err
	}
	return r, nil
}

// frameReader reads a frame's fields in order. The first error sticks:
// every later read returns zero, so a decoder checks once per step.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (d *frameReader) uvarint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.err = errors.New("shard frame: truncated")
	case n < 0 || v > math.MaxInt:
		d.err = fmt.Errorf("shard frame: uvarint at byte %d overflows", d.off)
	case n > 1 && d.b[d.off+n-1] == 0:
		d.err = fmt.Errorf("shard frame: uvarint at byte %d is not in its shortest form", d.off)
	default:
		d.off += n
		return int(v)
	}
	return 0
}

// count reads a count of items of at least minBytes each, and fails it
// above limit or beyond what the bytes left could hold.
func (d *frameReader) count(limit, minBytes int, what string) int {
	c := d.uvarint()
	if d.err != nil {
		return 0
	}
	if c > limit {
		d.err = fmt.Errorf("shard frame: %d %s exceed %d", c, what, limit)
		return 0
	}
	if c*minBytes > len(d.b)-d.off {
		d.err = fmt.Errorf("shard frame: %d %s in %d bytes", c, what, len(d.b)-d.off)
		return 0
	}
	return c
}

// str reads a length-prefixed string as a substring of text, the frame
// as one string.
func (d *frameReader) str(text string) string {
	n := d.count(math.MaxInt, 1, "string bytes")
	s := text[d.off : d.off+n]
	d.off += n
	return s
}
