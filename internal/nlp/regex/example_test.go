package regex_test

import (
	"fmt"

	"sirius/internal/nlp/regex"
)

// The engine supports the operator set an IPA's question filters need:
// classes, anchors, quantifiers, groups and captures.
func ExampleRegexp_FindStringSubmatch() {
	re := regex.MustCompile(`(\w+) is the capital of (\w+)`)
	m := re.FindStringSubmatch("rome is the capital of italy.")
	fmt.Println(m[1], "<-", m[2])
	// Output:
	// rome <- italy
}

func ExampleRegexp_MatchString() {
	question := regex.MustCompile(`^(who|what|where|when)\b`)
	fmt.Println(question.MatchString("where is las vegas"))
	fmt.Println(question.MatchString("set my alarm"))
	// Output:
	// true
	// false
}
