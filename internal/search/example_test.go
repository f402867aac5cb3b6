package search_test

import (
	"fmt"

	"sirius/internal/search"
)

// The index is the Nutch stand-in: BM25-ranked retrieval over an
// in-memory inverted index, with title matches boosted. It is built once,
// each document added with its ID in the whole corpus, and then only read.
func ExampleIndex_Search() {
	var b search.Builder
	b.Add(0, "Rome", "rome is the capital of italy")
	b.Add(1, "Paris", "paris is the capital of france")
	ix := b.Build()
	for _, r := range ix.Search("capital of italy", 1) {
		fmt.Println(r.Doc.Title)
	}
	// Output:
	// Rome
}
