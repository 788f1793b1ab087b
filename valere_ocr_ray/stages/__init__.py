from valere_ocr_ray.stages.docmeta import docmeta_batch
from valere_ocr_ray.stages.extractor import extract_fields_batch, extract_pages_batch

__all__ = ["docmeta_batch", "extract_pages_batch", "extract_fields_batch"]
