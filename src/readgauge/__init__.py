"""Readability feature extraction and linear-model evaluation toolkit."""

__version__ = "0.1.0"
