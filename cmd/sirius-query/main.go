// Command sirius-query is the mobile-client side of Figure 2: it
// synthesizes a spoken query (and optionally a photo of a known entity),
// POSTs it as JSON to a running sirius-server's /v1/query, and prints
// the response.
//
// Usage:
//
//	sirius-query -server http://localhost:8080 -text "what is the capital of italy"
//	sirius-query -text "when does this restaurant close" -image "luigis restaurant"
//	sirius-query -text "set my alarm for eight" -voice=false   # send text, skip ASR
//	sirius-query -text "call mom" -precision int8              # quantized scoring (DNN server)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"sirius/internal/asr"
	"sirius/internal/kb"
	"sirius/internal/sirius"
	"sirius/internal/vision"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "sirius-server base URL")
	text := flag.String("text", "", "query text (synthesized to speech unless -voice=false)")
	imageID := flag.String("image", "", "entity whose photo accompanies the query (see -list-images)")
	voice := flag.Bool("voice", true, "synthesize the text to audio and exercise ASR")
	seed := flag.Int64("seed", 1, "synthesis jitter seed")
	precision := flag.String("precision", "", "acoustic scoring precision: fp64 or int8 (int8 needs a -engine dnn server; empty = fp64)")
	listImages := flag.Bool("list-images", false, "print known image entities and exit")
	flag.Parse()

	if *listImages {
		for _, e := range kb.ImageEntities() {
			fmt.Println(e)
		}
		return
	}
	if *text == "" {
		fmt.Fprintln(os.Stderr, "provide -text (see -h)")
		os.Exit(2)
	}

	var samples []float64
	sendText := *text
	if *voice {
		lex, _ := kb.BuildLexicon()
		var err error
		samples, err = asr.SynthesizeText(lex, *text, *seed)
		if err != nil {
			log.Fatalf("synthesize: %v (voice queries must use the input-set vocabulary; try -voice=false)", err)
		}
		sendText = "" // server runs ASR
	}
	var img *vision.Image
	if *imageID != "" {
		scene := vision.GenerateScene(*imageID, vision.DefaultSceneConfig())
		img = vision.Warp(scene, vision.DefaultWarp(*seed))
	}

	if _, err := asr.ParsePrecision(*precision); err != nil {
		log.Fatal(err)
	}
	body, ctype, err := sirius.BuildJSONQueryPrecision(samples, img, sendText, *precision)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(*server+"/v1/query", ctype, body)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The error envelope says why (e.g. bad_precision for int8 on a
		// GMM server).
		envelope, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		log.Fatalf("server returned %s: %s", resp.Status, bytes.TrimSpace(envelope))
	}
	var r sirius.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kind       : %s\n", r.Kind)
	fmt.Printf("transcript : %s\n", r.Transcript)
	if r.Precision != "" {
		fmt.Printf("precision  : %s\n", r.Precision)
	}
	if r.Action != "" {
		fmt.Printf("action     : %s\n", r.Action)
	}
	if r.Answer != "" {
		fmt.Printf("answer     : %s\n", r.Answer)
	}
	if r.MatchedImage != "" {
		fmt.Printf("image      : %s\n", r.MatchedImage)
	}
	fmt.Printf("latency    : total=%v asr=%v qa=%v imm=%v\n",
		r.Latency.Total, r.Latency.ASR, r.Latency.QA, r.Latency.IMM)
}
