open St_grammars

type t = Streamtok | Flex

let name = function Streamtok -> "streamtok" | Flex -> "flex"

type prepared =
  | P_streamtok of St_streamtok.Engine.t
  | P_flex of St_baselines.Flex_model.t

let prepare backend grammar =
  let d = Grammar.dfa grammar in
  match backend with
  | Streamtok -> (
      match St_streamtok.Engine.compile d with
      | Ok e -> P_streamtok e
      | Error St_streamtok.Engine.Unbounded_tnd ->
          invalid_arg
            (Printf.sprintf
               "Tokenizer_backend.prepare: grammar %s has unbounded max-TND"
               grammar.Grammar.name))
  | Flex -> P_flex (St_baselines.Flex_model.compile d)

let run p input ~emit =
  match p with
  | P_streamtok e -> (
      match St_streamtok.Engine.run_string e input ~emit with
      | St_streamtok.Engine.Finished -> Ok ()
      | St_streamtok.Engine.Failed { offset; _ } -> Error offset)
  | P_flex fm -> (
      match St_baselines.Flex_model.run fm input ~emit with
      | St_baselines.Backtracking.Finished, _ -> Ok ()
      | St_baselines.Backtracking.Failed { offset; _ }, _ -> Error offset)
