"""Snippet complexity scoring and labeling-set curation for driving logs."""

__version__ = "0.1.0"

from .scene import (
    Lane,
    SceneMap,
    Snippet,
    SnippetPool,
    load_pool,
    save_pool,
    snippets_overlap,
)
from .selection import CurationConfig, curate

__all__ = [
    "Lane",
    "SceneMap",
    "Snippet",
    "SnippetPool",
    "load_pool",
    "save_pool",
    "snippets_overlap",
    "CurationConfig",
    "curate",
]
