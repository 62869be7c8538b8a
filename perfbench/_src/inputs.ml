(* Seeded input generation. Every input the program receives is text
   made here from the seed argument; its MD5 digest is recorded so two
   runs can show they measured the same inputs. *)

module Benchgen = Mpl_layout.Benchgen
module Layout_io = Mpl_layout.Layout_io

let digest s = Digest.to_hex (Digest.string s)

(* Native K5/K6 clusters and one-stitch gadgets sit in their own bands
   at fixed places, whatever the seed, so cn# is never 0 and most of
   st# is the same for every seed. The organic cells around them come
   from [Benchgen.synth]: one gadget per 200 features. *)
let native_five = 8
let native_six = 4

let synth ~seed ~features =
  Benchgen.generate
    {
      (Benchgen.synth ~stitch_gadgets:(features / 200) ~seed ~features ()) with
      Benchgen.native_five;
      native_six;
    }

let synth_text ~seed ~features = Layout_io.to_string (synth ~seed ~features)

let circuit_text name = Layout_io.to_string (Benchgen.circuit name)

(* A derived seed for the [i]-th draw of a stream, so one seed argument
   feeds every generator without two streams sharing draws. *)
let derive seed stream i = (seed * 1_000_003) + (stream * 7919) + i
