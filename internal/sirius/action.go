package sirius

import (
	"strings"

	"sirius/internal/nlp/regex"
)

// Action is a parsed device command — the payload Sirius sends back to
// the mobile device for execution (Figure 2's "Execute Action" edge).
// "set my alarm for eight" parses to {Verb: set, Object: alarm,
// Argument: eight}.
type Action struct {
	Verb     string `json:"verb"`
	Object   string `json:"object,omitempty"`
	Argument string `json:"argument,omitempty"`
}

// actionPatterns map command shapes to slots. Ordered: first match wins.
// Group 1 is the verb; object/argument group indices are per pattern.
var actionPatterns = []struct {
	re       *regex.Regexp
	objGroup int
	argGroup int
}{
	// "set my alarm for eight", "set a reminder for nine"
	{regex.MustCompile(`^(set) (my |a |an |the )?(\w+)( for (\w+))?$`), 3, 5},
	// "turn on the lights" / "turn off the lights"
	{regex.MustCompile(`^(turn) (on|off) (the )?(\w+)$`), 4, 2},
	// "send a text to john"
	{regex.MustCompile(`^(send) (a |an |the )?(\w+)( to (\w+))?$`), 3, 5},
	// "play the next song", "play some music"
	{regex.MustCompile(`^(play|start|stop|open|show|mute|call|take|dial|text|pause) (my |a |an |the |some )?(\w+ )?(\w+)$`), 4, 3},
	// bare verb + object: "call mom"
	{regex.MustCompile(`^(\w+) (\w+)$`), 2, 0},
	// bare verb
	{regex.MustCompile(`^(\w+)$`), 0, 0},
}

// parseAction extracts verb/object/argument slots from a command
// transcript. It never fails: unmatched structure degrades to verb-only.
func parseAction(text string) Action {
	t := strings.ToLower(strings.TrimSpace(strings.Trim(text, ".,?! ")))
	for _, p := range actionPatterns {
		m := p.re.FindStringSubmatch(t)
		if m == nil {
			continue
		}
		a := Action{Verb: m[1]}
		if p.objGroup > 0 && p.objGroup < len(m) {
			a.Object = strings.TrimSpace(m[p.objGroup])
		}
		if p.argGroup > 0 && p.argGroup < len(m) {
			a.Argument = strings.TrimSpace(m[p.argGroup])
		}
		return a
	}
	fields := strings.Fields(t)
	if len(fields) > 0 {
		return Action{Verb: fields[0]}
	}
	return Action{}
}
