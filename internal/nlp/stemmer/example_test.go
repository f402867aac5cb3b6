package stemmer_test

import (
	"fmt"

	"sirius/internal/nlp/stemmer"
)

// Stemming normalizes morphological variants to a shared root, which is
// how the QA engine matches question keywords against document text.
func ExampleStem() {
	for _, w := range []string{"connections", "connected", "connecting"} {
		fmt.Println(stemmer.Stem(w))
	}
	// Output:
	// connect
	// connect
	// connect
}

func ExampleStemAll() {
	fmt.Println(stemmer.StemAll([]string{"presidents", "elections"}, 1))
	// Output:
	// [presid elect]
}
