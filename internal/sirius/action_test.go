package sirius

import (
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"sirius/internal/kb"
)

func TestParseActionSlots(t *testing.T) {
	cases := []struct {
		text string
		want Action
	}{
		{"set my alarm for eight", Action{Verb: "set", Object: "alarm", Argument: "eight"}},
		{"set a reminder", Action{Verb: "set", Object: "reminder"}},
		{"turn on the lights", Action{Verb: "turn", Object: "lights", Argument: "on"}},
		{"turn off the lights", Action{Verb: "turn", Object: "lights", Argument: "off"}},
		{"send a text to john", Action{Verb: "send", Object: "text", Argument: "john"}},
		{"play some music", Action{Verb: "play", Object: "music"}},
		{"play the next song", Action{Verb: "play", Object: "song", Argument: "next"}},
		{"call mom", Action{Verb: "call", Object: "mom"}},
		{"mute the phone", Action{Verb: "mute", Object: "phone"}},
		{"stop", Action{Verb: "stop"}},
		{"", Action{}},
		{"Set My Alarm For Eight!", Action{Verb: "set", Object: "alarm", Argument: "eight"}},
	}
	for _, c := range cases {
		got := parseAction(c.text)
		if got != c.want {
			t.Errorf("ParseAction(%q) = %+v, want %+v", c.text, got, c.want)
		}
	}
}

func TestParseActionOnFullCommandSet(t *testing.T) {
	// Every input-set command must parse to its expected verb with a
	// non-empty object (commands are verb+object by construction).
	p := pipeline(t)
	for _, q := range kb.VoiceCommands {
		resp, err := p.Process(context.Background(), Request{Text: q.Text})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ActionDetail == nil {
			t.Fatalf("%q: no parsed action", q.Text)
		}
		if resp.ActionDetail.Verb != q.Want {
			t.Errorf("%q: verb %q want %q", q.Text, resp.ActionDetail.Verb, q.Want)
		}
	}
}

// servedPatterns reads ../nlp/regex/testdata/served.txt: the patterns the served path compiles, by
// the name of their set.
func servedPatterns(t *testing.T) map[string][]string {
	b, err := os.ReadFile("../nlp/regex/testdata/served.txt")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]string{}
	var set string
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "["):
			set = strings.Trim(line, "[]")
		default:
			sets[set] = append(sets[set], line)
		}
	}
	return sets
}

// TestPatternsAreTheServedList checks that the classifier's command
// pattern, the deictic pattern and the action table are, in order, the
// list the regex package's corpus differential runs against its reference
// matcher.
func TestPatternsAreTheServedList(t *testing.T) {
	sets := servedPatterns(t)
	p := pipeline(t)
	if got := []string{p.commandRe.String(), p.thisRe.String()}; !slices.Equal(got, sets["command"]) {
		t.Errorf("[command]: the pipeline compiles %q, the served list has %q", got, sets["command"])
	}
	var actions []string
	for _, a := range actionPatterns {
		actions = append(actions, a.re.String())
	}
	if !slices.Equal(actions, sets["action"]) {
		t.Errorf("[action]: the action table compiles %q, the served list has %q", actions, sets["action"])
	}
}
