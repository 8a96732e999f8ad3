"""repro: a from-scratch reproduction of the LLM tutorial's full stack.

Subpackages
-----------
- ``repro.autograd``      reverse-mode autodiff over NumPy
- ``repro.dtypes``        process-wide compute dtype policy (float32/float64)
- ``repro.nn``            layers, initializers, optimizers, LR schedules
- ``repro.data``          vocabularies, tokenizers, batching, synthetic corpora
- ``repro.lm``            §5 simpler LMs (unigram, N-gram, FFN, RNN, LSTM)
- ``repro.core``          §6 transformer LLM (attention, blocks, sampling)
- ``repro.infer``         batched serving: preallocated KV cache + engine
- ``repro.serve``         HTTP/streaming API + admission control over the engine
- ``repro.obs``           telemetry: metrics, tracing, event log, profiler
- ``repro.train``         training loops, metrics, checkpoints
- ``repro.embeddings``    §5 co-occurrence / PPMI / SVD / analogies
- ``repro.grammar``       appendix CFG/PCFG/CYK/Inside-Outside stack
- ``repro.othello``       §7 Othello world-model substrate
- ``repro.interp``        §7 probes, interventions, induction heads
- ``repro.phenomenology`` §3-4 scaling laws, compute, grokking, ICL
- ``repro.benchsuite``    §4 mini BIG-bench task suite + harness

Quick start::

    import numpy as np
    from repro.core import TransformerConfig, TransformerLM
    from repro.data import CharTokenizer, Corpus
    from repro.train import train_lm_on_stream

    text = "hello world " * 200
    tok = CharTokenizer(text)
    corpus = Corpus.from_ids(tok.encode(text), tok.vocab_size)
    model = TransformerLM(TransformerConfig(vocab_size=tok.vocab_size,
                                            max_seq_len=32), rng=0)
    train_lm_on_stream(model, corpus.train_ids, num_steps=200)
    print(tok.decode(model.generate(tok.encode("hello"), 20, greedy=True)))
"""

from . import (
    _malloc,
    autograd,
    benchsuite,
    core,
    data,
    embeddings,
    formal,
    grammar,
    infer,
    interp,
    lm,
    nn,
    obs,
    othello,
    phenomenology,
    serve,
    train,
)
from .autograd import Tensor, no_grad
from .core import TransformerConfig, TransformerLM, TransformerRegressor
from .dtypes import default_dtype, dtype_scope, resolve_dtype, set_default_dtype
from .data import BPETokenizer, CharTokenizer, Corpus, Vocabulary, WordTokenizer
from .infer import GenerationEngine, PagedKVCache
from .lm import FFNLM, LSTMLM, RNNLM, InterpolatedNGramLM, LanguageModel, NGramLM, UnigramLM
from .obs import Observability
from .train import Trainer, train_lm_on_stream

# Once per process: freed step temporaries stay in the heap for the next
# step instead of being faulted back in from the kernel (see _malloc).
_malloc.keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "autograd",
    "nn",
    "data",
    "lm",
    "core",
    "infer",
    "serve",
    "obs",
    "train",
    "embeddings",
    "formal",
    "grammar",
    "othello",
    "interp",
    "phenomenology",
    "benchsuite",
    "Tensor",
    "no_grad",
    "default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "resolve_dtype",
    "TransformerConfig",
    "TransformerLM",
    "TransformerRegressor",
    "GenerationEngine",
    "PagedKVCache",
    "Observability",
    "Vocabulary",
    "CharTokenizer",
    "WordTokenizer",
    "BPETokenizer",
    "Corpus",
    "LanguageModel",
    "UnigramLM",
    "NGramLM",
    "InterpolatedNGramLM",
    "FFNLM",
    "RNNLM",
    "LSTMLM",
    "Trainer",
    "train_lm_on_stream",
    "__version__",
]
