package sqltoken

import "testing"

// TestKeywordsFitFoldBuffer: no keyword is longer than the buffer Lex
// folds a word into, so no keyword can go unrecognized.
func TestKeywordsFitFoldBuffer(t *testing.T) {
	longest := 0
	for w := range keywords {
		longest = max(longest, len(w))
	}
	if longest != maxKeyword {
		t.Fatalf("the longest keyword has %d bytes, maxKeyword is %d", longest, maxKeyword)
	}
}
