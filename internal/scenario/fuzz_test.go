package scenario

import "testing"

// FuzzParse checks that the parser never panics and that String is a
// fixpoint of Parse: whatever Parse accepts renders to text that parses
// back to the same text. Struct equality is deliberately not required —
// defaults print in canonical form ("failpath @400s flaps=1" renders as
// "failpath @6m40s").
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add("fail link 3-7 @400s; restore link 3-7 @410s")
	f.Add("fail node 12 @400s\nrecover node 12 @430s # comment")
	f.Add("fail group 3-7,4-8 @400s; restore group 3-7,4-8 @410s")
	f.Add("flap link 3-7 every 6s x5 @400s")
	f.Add("loss link 1-2 p=0.01 @410s")
	f.Add("costout link 3-7 @400s; costin link 3-7 @500s")
	f.Add("churn links rate=0.1/s down=2s @450s..600s")
	f.Add("churn links 3-7,4-8 rate=0.5/s @450s..600s")
	f.Add("failpath @400s restore=3s flaps=5")
	f.Add("failrandom @430s")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		want := s.String()
		again, err := Parse(want)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not parse: %v", text, want, err)
		}
		if got := again.String(); got != want {
			t.Fatalf("String is not a fixpoint for %q:\n first:  %q\n second: %q", text, want, got)
		}
	})
}
